//! The evaluation harness: samples a model `n` times per task at each
//! temperature, compiles and co-simulates every sample, and aggregates
//! pass@k — reporting the best temperature, as the paper does
//! ("we set the temperature of each model to 0.2, 0.5 and 0.8, reporting
//! the best performance").
//!
//! The harness is fault-tolerant by construction (DESIGN.md "Failure
//! model"): every sample runs inside `catch_unwind` under a resource
//! budget, fault-class outcomes are retried with bounded deterministic
//! backoff before being quarantined as counted [`Verdict::HarnessFault`] /
//! [`Verdict::ResourceExhausted`] results, worker-thread death degrades to
//! per-task fault records instead of aborting the suite, and completed
//! tasks can be journaled so a killed run resumes where it stopped
//! ([`evaluate_resumable`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use haven_lm::model::CodeGenModel;
use haven_lm::perception::{perceive, Perception};
use haven_lm::profiles::ModelProfile;
use haven_sicot::SiCot;

/// How prompts are refined before generation.
#[derive(Debug, Clone, PartialEq)]
pub enum SicotMode {
    /// Feed prompts to the model unrefined.
    Off,
    /// The evaluated model refines its own prompts (the HaVen deployment:
    /// "one model is used for SI-CoT, fine-tuning and code generation").
    SelfRefine,
    /// A different model produces the SI-CoT instructions (Table VI feeds
    /// CodeQwen-refined prompts to commercial LLMs).
    External(ModelProfile),
}
use haven_engine::{Engine, EngineOptions, FormalOracle};
use haven_formal::EquivOptions;
use haven_spec::cosim::{
    cosimulate_batch_planned, BatchPlan, CosimOptions, SimBackend, SimBudget, Verdict,
};
use haven_spec::stimuli::stimuli_for;

use crate::fault::{corrupt_source, FaultKind, FaultPlan};
use crate::journal::{read_journal, JournalHeader, JournalWriter};
use crate::passk::mean_pass_at_k;
use crate::suites::BenchTask;

/// Why an evaluation could not start (or resume).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// `n == 0`: no samples per task means every metric is undefined.
    ZeroSamples,
    /// The temperature sweep is empty, so there is no best temperature.
    NoTemperatures,
    /// A zero resource budget would starve every sample.
    InvalidBudget,
    /// A retry policy with zero attempts would never run anything.
    InvalidRetry,
    /// The journal file could not be read or written.
    Journal(String),
    /// The journal on disk belongs to a different run (model, sample
    /// count, sweep, or task suite differ) and must not be mixed in.
    JournalMismatch {
        /// What this run expected the journal header to be.
        expected: String,
        /// What the journal on disk actually says.
        found: String,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::ZeroSamples => write!(f, "invalid config: n must be at least 1"),
            EvalError::NoTemperatures => {
                write!(f, "invalid config: the temperature sweep is empty")
            }
            EvalError::InvalidBudget => {
                write!(
                    f,
                    "invalid config: every simulation budget limit must be nonzero"
                )
            }
            EvalError::InvalidRetry => {
                write!(
                    f,
                    "invalid config: retry policy must allow at least one attempt"
                )
            }
            EvalError::Journal(msg) => write!(f, "journal error: {msg}"),
            EvalError::JournalMismatch { expected, found } => write!(
                f,
                "journal belongs to a different run (expected {expected}, found {found})"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// How fault-class sample outcomes are retried before quarantine.
///
/// Sample evaluation is deterministic, so genuine model failures reproduce
/// identically on retry and the policy can only change the outcome of
/// *transient* infrastructure faults — which is exactly the property that
/// keeps pass@k invariant under them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per sample (first try included). Must be >= 1.
    pub max_attempts: usize,
    /// Base backoff in milliseconds; attempt `i` sleeps `base << i`,
    /// capped at 50 ms so a permanently faulted suite still terminates
    /// promptly. Zero disables sleeping (used by tests).
    pub backoff_base_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 1,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
        }
    }

    /// Deterministic bounded backoff before retry number `attempt`.
    fn backoff(&self, attempt: usize) {
        let ms = (self.backoff_base_ms << attempt.min(16)).min(50);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Samples per task (paper: 10).
    pub n: usize,
    /// Temperatures swept (paper: 0.2 / 0.5 / 0.8).
    pub temperatures: Vec<f64>,
    /// Prompt refinement mode.
    pub sicot: SicotMode,
    /// Worker threads (tasks are dealt one at a time; each runs every
    /// temperature).
    pub threads: usize,
    /// Run the dataflow static analyzer on each compiled sample and skip
    /// co-simulation for candidates with Error-severity findings (they are
    /// counted as functional failures without spending simulation cycles).
    pub static_gate: bool,
    /// Resource budget applied to every candidate simulation; runaway
    /// candidates yield [`Verdict::ResourceExhausted`] instead of stalling
    /// a worker.
    pub budget: SimBudget,
    /// Retry policy for fault-class sample outcomes.
    pub retry: RetryPolicy,
    /// Simulation engine for candidate designs (see DESIGN.md §10). Both
    /// backends are verdict-equivalent; this exists for A/B timing and as
    /// an escape hatch back to the reference interpreter.
    pub backend: SimBackend,
    /// Deduplicate bit-identical generations within a task by source
    /// hash: the first occurrence is simulated, later ones replay its
    /// verdict. Verdict-preserving because sample evaluation is
    /// deterministic in the source; injected faults bypass the cache.
    pub memoize: bool,
    /// Capacity of the shared engine artifact cache (compiled designs,
    /// static reports, bytecode — see `haven-engine`). Unlike `memoize`,
    /// which replays whole verdicts within one task, this caches the
    /// *compile* ladder across tasks, temperatures and samples. 0 turns
    /// it off (every sample re-compiles — the bench baseline).
    pub artifact_cache: usize,
    /// Run the formal equivalence oracle (`haven-formal`) on samples
    /// that pass co-simulation: a replay-confirmed counterexample
    /// demotes the sample to a functional failure (cosim's stimulus
    /// program missed the bug), an `Unknown` is counted as typed
    /// telemetry without changing the verdict. Off by default; when off,
    /// every metric is bit-identical to a build without the oracle.
    pub formal_oracle: bool,
    /// Deterministic fault injection (tests and resilience drills only;
    /// `None` in production runs).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            n: 10,
            temperatures: vec![0.2, 0.5, 0.8],
            sicot: SicotMode::Off,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            static_gate: true,
            budget: SimBudget::default(),
            retry: RetryPolicy::default(),
            backend: SimBackend::default(),
            memoize: true,
            artifact_cache: 512,
            formal_oracle: false,
            fault_plan: None,
        }
    }
}

impl EvalConfig {
    /// Quick single-temperature configuration (examples / tests).
    pub fn quick(n: usize) -> EvalConfig {
        EvalConfig {
            n,
            temperatures: vec![0.2],
            ..EvalConfig::default()
        }
    }

    /// Rejects configurations that cannot produce a meaningful result.
    pub fn validate(&self) -> Result<(), EvalError> {
        if self.n == 0 {
            return Err(EvalError::ZeroSamples);
        }
        if self.temperatures.is_empty() {
            return Err(EvalError::NoTemperatures);
        }
        if !self.budget.is_valid() {
            return Err(EvalError::InvalidBudget);
        }
        if self.retry.max_attempts == 0 {
            return Err(EvalError::InvalidRetry);
        }
        Ok(())
    }
}

/// Outcome of one task under one temperature.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskResult {
    /// Task id.
    pub task_id: String,
    /// Samples drawn.
    pub n: usize,
    /// Samples that were syntactically valid.
    pub c_syntax: usize,
    /// Samples that passed co-simulation.
    pub c_func: usize,
    /// Samples whose co-simulation was skipped because the static analyzer
    /// reported an Error-severity finding (counted as functional failures).
    pub skipped_sims: usize,
    /// Samples quarantined as harness faults (worker panic, corrupted
    /// source) after the retry budget. Counted as failures of the
    /// *harness*, not the model: they fail both syntax and functional
    /// metrics but are reported separately so infrastructure trouble is
    /// visible instead of being laundered into model quality.
    pub faults: usize,
    /// Samples whose simulation exhausted its resource budget.
    pub exhausted: usize,
    /// Retry attempts spent on fault-class outcomes across all samples.
    pub retries: usize,
    /// Samples whose verdict was replayed from the in-task memo cache
    /// because an earlier sample generated bit-identical source.
    pub dedup_hits: usize,
    /// Cosim-passing samples the formal oracle examined (zero when
    /// [`EvalConfig::formal_oracle`] is off).
    pub formal_checked: usize,
    /// Oracle-examined samples proved equivalent to the golden design.
    pub formal_equivalent: usize,
    /// Cosim-passing samples refuted by a replay-confirmed formal
    /// counterexample and demoted to functional failures — each one is a
    /// bug the stimulus program missed.
    pub formal_refuted: usize,
    /// Oracle-examined samples left undecided (x-abstraction taint, SAT
    /// budget, unsupported constructs); their cosim pass stands.
    pub formal_unknown: usize,
}

impl TaskResult {
    /// The record synthesized when a whole worker thread dies: every
    /// sample of the task is quarantined as a harness fault.
    pub fn faulted(task_id: &str, n: usize) -> TaskResult {
        TaskResult {
            task_id: task_id.into(),
            n,
            faults: n,
            ..TaskResult::default()
        }
    }
}

/// Batched-simulation telemetry for one evaluation run, summarized from
/// [`Engine::batch_stats`]. Observational only: two runs that produce
/// identical verdicts may batch differently (different backends, cache
/// warmth or memoization), so this field is excluded from `SuiteResult`
/// equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalBatchStats {
    /// Batched settle sweeps run.
    pub runs: u64,
    /// Stimulus lanes those sweeps carried.
    pub lanes: u64,
    /// Fallbacks to the scalar path (all spill reasons).
    pub fallbacks: u64,
    /// Ops serialized per lane inside batched sweeps.
    pub lane_serialized_ops: u64,
    /// Ops that spilled to the scalar wide-value (>64-bit) path.
    pub wide_value_spills: u64,
}

impl EvalBatchStats {
    fn from_engine(stats: haven_engine::BatchStats) -> EvalBatchStats {
        EvalBatchStats {
            runs: stats.runs,
            lanes: stats.lanes,
            fallbacks: stats.total_fallbacks(),
            lane_serialized_ops: stats.lane_serialized_ops,
            wide_value_spills: stats.wide_value_spills,
        }
    }
}

/// A full evaluation of one model on one suite.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Model evaluated.
    pub model: String,
    /// Temperature that won the sweep (by functional pass@1).
    pub best_temperature: f64,
    /// Per-task outcomes at the best temperature.
    pub tasks: Vec<TaskResult>,
    /// Batched-simulation telemetry (excluded from equality — see
    /// [`EvalBatchStats`]).
    pub batch: EvalBatchStats,
}

/// Equality covers the *verdict-bearing* fields only: `batch` is
/// engine telemetry that legitimately differs between runs which must
/// otherwise be bit-identical (backend equivalence, memoization on/off,
/// resumed vs uninterrupted).
impl PartialEq for SuiteResult {
    fn eq(&self, other: &SuiteResult) -> bool {
        self.model == other.model
            && self.best_temperature == other.best_temperature
            && self.tasks == other.tasks
    }
}

impl SuiteResult {
    /// Mean functional pass@k (percent).
    pub fn pass_at(&self, k: usize) -> f64 {
        let counts: Vec<(usize, usize)> = self.tasks.iter().map(|t| (t.n, t.c_func)).collect();
        100.0 * mean_pass_at_k(&counts, k)
    }

    /// Mean syntax pass@k (percent).
    pub fn syntax_pass_at(&self, k: usize) -> f64 {
        let counts: Vec<(usize, usize)> = self.tasks.iter().map(|t| (t.n, t.c_syntax)).collect();
        100.0 * mean_pass_at_k(&counts, k)
    }

    /// `(P, T)` for Table V's "pass cases / total cases" columns: the
    /// expected number of tasks a single attempt solves (`Σ c/n`,
    /// rounded) over the task count.
    pub fn pass_counts(&self) -> (usize, usize) {
        let expected: f64 = self
            .tasks
            .iter()
            .map(|t| t.c_func as f64 / t.n.max(1) as f64)
            .sum();
        (expected.round() as usize, self.tasks.len())
    }

    /// Total co-simulations skipped by the static gate across all tasks.
    pub fn skipped_sims(&self) -> usize {
        self.tasks.iter().map(|t| t.skipped_sims).sum()
    }

    /// Total samples quarantined as harness faults across all tasks.
    pub fn faults(&self) -> usize {
        self.tasks.iter().map(|t| t.faults).sum()
    }

    /// Total samples that exhausted their resource budget.
    pub fn exhausted(&self) -> usize {
        self.tasks.iter().map(|t| t.exhausted).sum()
    }

    /// Total retry attempts spent on fault-class outcomes.
    pub fn retries(&self) -> usize {
        self.tasks.iter().map(|t| t.retries).sum()
    }

    /// Total verdicts replayed from the per-task dedup cache instead of
    /// being re-simulated.
    pub fn dedup_hits(&self) -> usize {
        self.tasks.iter().map(|t| t.dedup_hits).sum()
    }

    /// Total cosim-passing samples the formal oracle examined.
    pub fn formal_checked(&self) -> usize {
        self.tasks.iter().map(|t| t.formal_checked).sum()
    }

    /// Total samples the oracle proved equivalent.
    pub fn formal_equivalent(&self) -> usize {
        self.tasks.iter().map(|t| t.formal_equivalent).sum()
    }

    /// Total cosim passes demoted by a replay-confirmed counterexample.
    pub fn formal_refuted(&self) -> usize {
        self.tasks.iter().map(|t| t.formal_refuted).sum()
    }

    /// Total oracle queries left undecided (typed `Unknown` outcomes).
    pub fn formal_unknown(&self) -> usize {
        self.tasks.iter().map(|t| t.formal_unknown).sum()
    }

    /// Filters to the tasks whose ids are in `ids` (per-modality rows).
    pub fn filtered(&self, ids: &[&str]) -> SuiteResult {
        SuiteResult {
            model: self.model.clone(),
            best_temperature: self.best_temperature,
            tasks: self
                .tasks
                .iter()
                .filter(|t| ids.contains(&t.task_id.as_str()))
                .cloned()
                .collect(),
            batch: self.batch,
        }
    }
}

/// Evaluates `profile` on `tasks`.
pub fn evaluate(
    profile: &ModelProfile,
    tasks: &[BenchTask],
    cfg: &EvalConfig,
) -> Result<SuiteResult, EvalError> {
    cfg.validate()?;
    let engine = Engine::new(engine_options(cfg));
    run_sweep(&engine, profile, tasks, cfg, None, &TaskPlan::new)
}

/// Evaluates `profile` on `tasks`, journaling completed task results to
/// `journal_path` and resuming from whatever a previous (killed) run with
/// the same configuration already finished. The result is identical to an
/// uninterrupted [`evaluate`] of the same run.
pub fn evaluate_resumable(
    profile: &ModelProfile,
    tasks: &[BenchTask],
    cfg: &EvalConfig,
    journal_path: &Path,
) -> Result<SuiteResult, EvalError> {
    cfg.validate()?;
    let header = JournalHeader {
        model: profile.name.clone(),
        n: cfg.n,
        temperatures: cfg.temperatures.clone(),
        suite_fingerprint: JournalHeader::fingerprint(tasks.iter().map(|t| t.id.as_str())),
    };
    let done = match read_journal(journal_path)? {
        Some(contents) => {
            if contents.header != header {
                return Err(EvalError::JournalMismatch {
                    expected: format!("{header:?}"),
                    found: format!("{:?}", contents.header),
                });
            }
            contents.done
        }
        None => HashMap::new(),
    };
    let writer = JournalWriter::open(journal_path, &header)?;
    let engine = Engine::new(engine_options(cfg));
    run_sweep(
        &engine,
        profile,
        tasks,
        cfg,
        Some((&done, &writer)),
        &TaskPlan::new,
    )
}

/// Results already on disk, keyed by `(temperature bits, task id)`.
type DoneMap = HashMap<(u64, String), TaskResult>;

/// The options of the one engine a sweep shares across every worker,
/// task and temperature, so a source generated twice anywhere in the run
/// compiles once while it stays cached.
fn engine_options(cfg: &EvalConfig) -> EngineOptions {
    EngineOptions {
        backend: cfg.backend,
        budget: cfg.budget,
        cache_capacity: cfg.artifact_cache,
        ..EngineOptions::default()
    }
}

/// The candidate-independent half of a task's evaluation: its stimulus
/// program and the golden sweep batched from it. Both depend on the task
/// alone, so a sweep builds them once and screens every sample at every
/// temperature through them.
struct TaskPlan {
    stimuli: haven_spec::stimuli::Stimuli,
    batch: BatchPlan,
}

impl TaskPlan {
    fn new(task: &BenchTask) -> TaskPlan {
        let stimuli = stimuli_for(&task.spec, task.stim_seed);
        let batch = BatchPlan::new(&task.spec, &stimuli);
        TaskPlan { stimuli, batch }
    }
}

/// Runs the sweep task-major: workers claim tasks one at a time from a
/// shared index and run each at every temperature back to back, so the
/// task's plan is built once and the sources a temperature regenerates
/// still find their compiled artifacts in the engine cache.
fn run_sweep(
    engine: &Engine,
    profile: &ModelProfile,
    tasks: &[BenchTask],
    cfg: &EvalConfig,
    journal: Option<(&DoneMap, &JournalWriter)>,
    plan_task: &(dyn Fn(&BenchTask) -> TaskPlan + Sync),
) -> Result<SuiteResult, EvalError> {
    // One oracle for the whole sweep, like the engine: its outcome LRU
    // is keyed by (golden, candidate, options) content, so a pair judged
    // at one temperature replays at every other.
    let oracle = cfg
        .formal_oracle
        .then(|| FormalOracle::new(EquivOptions::default()));
    // Runs `task` at every temperature the journal does not hold yet,
    // journaling each fresh result; a task whose worker died (`alive`
    // false) is recorded as faulted instead.
    let sweep_task = |task: &BenchTask, alive: bool| -> Vec<TaskResult> {
        let mut plan = None;
        let mut results = Vec::with_capacity(cfg.temperatures.len());
        for &temp in &cfg.temperatures {
            let held = journal.and_then(|(done, _)| done.get(&(temp.to_bits(), task.id.clone())));
            if let Some(r) = held {
                results.push(r.clone());
                continue;
            }
            // Per-task isolation: a panic that escapes the per-sample layer
            // quarantines this task, not the worker: at this temperature
            // (e.g. in prompt refinement), or at every one (in planning).
            let plan = plan.get_or_insert_with(|| {
                alive.then(|| catch_unwind(AssertUnwindSafe(|| plan_task(task))).ok())?
            });
            let r = plan
                .as_ref()
                .and_then(|plan| {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_task(engine, oracle.as_ref(), profile, task, cfg, temp, plan)
                    }))
                    .ok()
                })
                .unwrap_or_else(|| TaskResult::faulted(&task.id, cfg.n));
            if let Some((_, writer)) = journal {
                writer.append(temp, &r);
            }
            results.push(r);
        }
        results
    };
    let slots: Vec<OnceLock<Vec<TaskResult>>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads.max(1).min(tasks.len().max(1)))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let _ = slots[i].set(sweep_task(task, true));
                })
            })
            .collect();
        for worker in workers {
            // A worker that died in a way even catch_unwind could not
            // absorb loses only the task it held, which leaves its slot
            // empty; the survivors keep claiming the rest.
            let _ = worker.join();
        }
    });
    let results: Vec<Vec<TaskResult>> = tasks
        .iter()
        .zip(slots)
        .map(|(task, slot)| slot.into_inner().unwrap_or_else(|| sweep_task(task, false)))
        .collect();
    let mut best: Option<(usize, f64)> = None;
    for i in 0..cfg.temperatures.len() {
        let counts: Vec<(usize, usize)> = results.iter().map(|r| (r[i].n, r[i].c_func)).collect();
        let p1 = mean_pass_at_k(&counts, 1);
        if best.is_none_or(|(_, bp)| p1 > bp) {
            best = Some((i, p1));
        }
    }
    let (i, _) = best.ok_or(EvalError::NoTemperatures)?;
    Ok(SuiteResult {
        model: profile.name.clone(),
        best_temperature: cfg.temperatures[i],
        tasks: results.into_iter().map(|mut r| r.swap_remove(i)).collect(),
        batch: EvalBatchStats::from_engine(engine.batch_stats()),
    })
}

/// What one attempt at one sample produced.
struct SampleOutcome {
    verdict: Verdict,
    /// The static gate short-circuited co-simulation.
    gated: bool,
    /// How the formal oracle classified a cosim pass, when it ran.
    formal: Option<FormalClass>,
}

/// The three-way classification a formal query contributes to the
/// per-task counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FormalClass {
    Equivalent,
    Refuted,
    Unknown,
}

/// Per-task verdict cache keyed by a hash of the generated source.
///
/// Sample evaluation is a pure function of the source text (generation,
/// compilation, gating and co-simulation are all deterministic), so two
/// bit-identical generations — common at low temperature — must produce
/// the same [`SampleOutcome`]. The first occurrence is evaluated for
/// real; later ones replay its verdict and gate flag. Attempts with an
/// injected fault bypass the cache entirely, in both directions: they
/// neither read a cached verdict (the fault must actually strike) nor
/// poison the cache for clean attempts.
#[derive(Default)]
struct TaskMemo {
    verdicts: HashMap<u64, (Verdict, bool, Option<FormalClass>)>,
    hits: usize,
}

impl TaskMemo {
    /// Memo key: the source's content plus the structured
    /// [`haven_engine::EngineFingerprint`] of the configuration that
    /// judged it — built on the same [`haven_hash::ContentHasher`] the
    /// serve-layer response cache uses, so the two caches cannot drift
    /// on what "identical source under the same engine" means.
    fn key(source: &str, fingerprint_key: u64) -> u64 {
        haven_hash::ContentHasher::new()
            .part(source)
            .word(fingerprint_key)
            .finish()
    }
}

impl SampleOutcome {
    fn of(verdict: Verdict) -> SampleOutcome {
        SampleOutcome {
            verdict,
            gated: false,
            formal: None,
        }
    }

    fn fault(detail: impl Into<String>) -> SampleOutcome {
        SampleOutcome::of(Verdict::HarnessFault(detail.into()))
    }
}

fn run_task(
    engine: &Engine,
    oracle: Option<&FormalOracle>,
    profile: &ModelProfile,
    task: &BenchTask,
    cfg: &EvalConfig,
    temperature: f64,
    plan: &TaskPlan,
) -> TaskResult {
    // The structured fingerprint of everything besides the source that
    // shapes a verdict; folded into every memo key so a config change
    // can never replay a stale verdict.
    let fingerprint_key = engine
        .fingerprint()
        .with_static_gate(cfg.static_gate)
        .with_formal_oracle(cfg.formal_oracle)
        .key();
    let model = CodeGenModel::new(profile.clone(), temperature);
    // Per the paper, the same pre-trained model serves as CoT prompting
    // model and CodeGen-LLM.
    let prompt = match &cfg.sicot {
        SicotMode::Off => task.prompt.clone(),
        SicotMode::SelfRefine => {
            SiCot::new(model.clone())
                .refine(&task.prompt, &task.id)
                .text
        }
        SicotMode::External(p) => {
            let refiner = CodeGenModel::new(p.clone(), temperature);
            SiCot::new(refiner).refine(&task.prompt, &task.id).text
        }
    };
    // The reading depends on the prompt alone: one per task and
    // temperature, shared by every sample and retry.
    let perception = perceive(&prompt).ok();
    let mut r = TaskResult {
        task_id: task.id.clone(),
        n: cfg.n,
        ..TaskResult::default()
    };
    let mut memo = TaskMemo::default();
    for sample in 0..cfg.n {
        let mut attempt = 0usize;
        let outcome = loop {
            let o = catch_unwind(AssertUnwindSafe(|| {
                evaluate_sample(
                    engine,
                    oracle,
                    fingerprint_key,
                    &model,
                    perception.as_ref(),
                    task,
                    cfg,
                    temperature,
                    plan,
                    sample,
                    attempt,
                    &mut memo,
                )
            }))
            .unwrap_or_else(|payload| {
                SampleOutcome::fault(format!("worker panicked: {}", panic_message(&*payload)))
            });
            // Only fault-class verdicts are retried: sample evaluation is
            // deterministic, so retrying a genuine model failure would
            // reproduce it bit-for-bit — which is why retries cannot
            // change pass@k, only recover from transient infrastructure.
            if !o.verdict.is_fault() || attempt + 1 >= cfg.retry.max_attempts {
                break o;
            }
            cfg.retry.backoff(attempt);
            r.retries += 1;
            attempt += 1;
        };
        r.skipped_sims += usize::from(outcome.gated);
        r.c_syntax += usize::from(outcome.verdict.syntax_ok());
        r.c_func += usize::from(outcome.verdict.functional_ok());
        match &outcome.verdict {
            Verdict::HarnessFault(_) => r.faults += 1,
            Verdict::ResourceExhausted(_) => r.exhausted += 1,
            _ => {}
        }
        if let Some(class) = outcome.formal {
            r.formal_checked += 1;
            match class {
                FormalClass::Equivalent => r.formal_equivalent += 1,
                FormalClass::Refuted => r.formal_refuted += 1,
                FormalClass::Unknown => r.formal_unknown += 1,
            }
        }
    }
    r.dedup_hits = memo.hits;
    r
}

#[allow(clippy::too_many_arguments)]
fn evaluate_sample(
    engine: &Engine,
    oracle: Option<&FormalOracle>,
    fingerprint_key: u64,
    model: &CodeGenModel,
    perception: Option<&Perception>,
    task: &BenchTask,
    cfg: &EvalConfig,
    temperature: f64,
    plan: &TaskPlan,
    sample: usize,
    attempt: usize,
    memo: &mut TaskMemo,
) -> SampleOutcome {
    let fault = cfg
        .fault_plan
        .as_ref()
        .and_then(|p| p.fault_at(&task.id, temperature, sample, attempt));
    if fault == Some(FaultKind::WorkerPanic) {
        panic!("injected fault: worker panic at {}#{sample}", task.id);
    }
    let (mut source, _) = model.generate_perceived(perception, &task.id, sample);
    if fault == Some(FaultKind::SourceCorruption) {
        source = corrupt_source(&source);
    }
    // Harness-boundary sanity check: generated source that was damaged in
    // flight (NUL bytes, empty buffer) is an infrastructure fault, not a
    // syntax error of the model.
    if source.is_empty() || source.contains('\0') {
        return SampleOutcome::fault(format!(
            "source corrupted at harness boundary for {}#{sample}",
            task.id
        ));
    }
    // Dedup check: past the harness boundary the outcome is a pure
    // function of the source, so a bit-identical earlier generation
    // already decided this sample. Fault-injected attempts must run the
    // real path, so they never consult or fill the cache.
    let memoized = cfg.memoize && fault.is_none();
    let key = TaskMemo::key(&source, fingerprint_key);
    if memoized {
        if let Some((verdict, gated, formal)) = memo.verdicts.get(&key) {
            memo.hits += 1;
            return SampleOutcome {
                verdict: verdict.clone(),
                gated: *gated,
                formal: *formal,
            };
        }
    }
    let outcome = evaluate_source(engine, oracle, &source, task, cfg, plan, fault);
    if memoized {
        memo.verdicts.insert(
            key,
            (outcome.verdict.clone(), outcome.gated, outcome.formal),
        );
    }
    outcome
}

/// The deterministic tail of sample evaluation: everything downstream of
/// the generated source (engine prepare → static gate → co-simulation →
/// optional formal equivalence check on a cosim pass).
fn evaluate_source(
    engine: &Engine,
    oracle: Option<&FormalOracle>,
    source: &str,
    task: &BenchTask,
    cfg: &EvalConfig,
    plan: &TaskPlan,
    fault: Option<FaultKind>,
) -> SampleOutcome {
    // One engine prepare climbs the whole ladder (parse → elaborate →
    // analyze → bytecode) and answers from the shared artifact cache when
    // any worker already compiled this exact source. Artifacts are pure
    // compile products, so a cache hit is safe even on fault-injected
    // attempts — the fault machinery lives downstream.
    let artifact = match engine.prepare(source) {
        Ok(a) => a,
        Err(e) => return SampleOutcome::of(Verdict::SyntaxError(e.to_string())),
    };
    if cfg.static_gate && artifact.report.has_errors() {
        // The design compiled (syntax ok) but the dataflow analyzer
        // proved it defective — e.g. a combinational loop or an
        // X-generating reset-less register — so co-simulation could
        // only confirm the failure. Short-circuit it.
        return SampleOutcome {
            verdict: Verdict::FunctionalMismatch {
                at_check: 0,
                detail: "skipped by static gate: analyzer proved the design defective".into(),
            },
            gated: true,
            formal: None,
        };
    }
    let options = CosimOptions {
        mid_tick_checks: true,
        // An injected stall starves this attempt's simulator through the
        // real budget machinery, so the recovery path under test is the
        // production one.
        budget: if fault == Some(FaultKind::SimStall) {
            SimBudget::starved()
        } else {
            cfg.budget
        },
        backend: cfg.backend,
    };
    // Batched co-simulation: combinational stimulus programs sweep up to
    // 64 Check episodes per settle on the bit-parallel engine, falling
    // back to the scalar path (spill counted on the engine) whenever the
    // program or artifact does not qualify. Verdicts are bit-identical
    // either way — pinned by the backend-equivalence test below and the
    // differential suite in crates/spec.
    let verdict = cosimulate_batch_planned(
        &task.spec,
        engine,
        &artifact,
        &plan.stimuli,
        &options,
        &plan.batch,
    )
    .verdict;

    // Formal rung: only cosim passes are worth a proof attempt — every
    // other verdict already names a concrete failure. A replay-confirmed
    // counterexample means the stimulus program false-passed the sample;
    // it is demoted to a functional mismatch. Unknown outcomes are typed
    // telemetry: the cosim pass stands.
    let (verdict, formal) = match (&verdict, oracle) {
        (Verdict::Pass, Some(oracle)) => {
            match haven_spec::formal::formal_check(engine, oracle, &task.spec, source) {
                Some(outcome) => match &outcome.report.verdict {
                    haven_formal::EquivVerdict::Equivalent => {
                        (verdict, Some(FormalClass::Equivalent))
                    }
                    haven_formal::EquivVerdict::Counterexample(trace) => (
                        Verdict::FunctionalMismatch {
                            at_check: trace.mismatch_step,
                            detail: format!(
                                "formal counterexample on `{}` (cosim stimuli missed it)",
                                trace.mismatch_output
                            ),
                        },
                        Some(FormalClass::Refuted),
                    ),
                    haven_formal::EquivVerdict::Unknown(_) => (verdict, Some(FormalClass::Unknown)),
                },
                // Either side failed to prepare — for a cosim-passing
                // candidate that means the golden emission, which is a
                // harness-side surprise, not a candidate failure.
                None => (verdict, Some(FormalClass::Unknown)),
            }
        }
        _ => (verdict, None),
    };
    SampleOutcome {
        verdict,
        gated: false,
        formal,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;
    use haven_lm::profiles::ModelProfile;

    fn small_suite() -> Vec<crate::suites::BenchTask> {
        suites::verilog_eval_machine(1)
            .into_iter()
            .take(12)
            .collect()
    }

    #[test]
    fn perfect_model_scores_100() {
        let suite = small_suite();
        let r = evaluate(
            &ModelProfile::uniform("perfect", 1.0),
            &suite,
            &EvalConfig::quick(2),
        )
        .unwrap();
        assert_eq!(r.pass_at(1), 100.0);
        assert_eq!(r.syntax_pass_at(1), 100.0);
        assert_eq!(r.faults(), 0);
        assert_eq!(r.exhausted(), 0);
    }

    #[test]
    fn suite_result_carries_batch_telemetry() {
        let suite = small_suite();
        let r = evaluate(
            &ModelProfile::uniform("perfect", 1.0),
            &suite,
            &EvalConfig::quick(2),
        )
        .unwrap();
        // Every simulated sample either ran batched or was counted as a
        // scalar fallback; a populated suite can't leave both at zero.
        assert!(
            r.batch.runs + r.batch.fallbacks > 0,
            "batch telemetry not wired: {:?}",
            r.batch
        );
        // Each batched sweep carries at least one lane.
        assert!(r.batch.lanes >= r.batch.runs);
    }

    #[test]
    fn stronger_models_score_higher() {
        let suite = small_suite();
        let cfg = EvalConfig::quick(4);
        let weak = evaluate(&ModelProfile::uniform("weak", 0.3), &suite, &cfg).unwrap();
        let strong = evaluate(&ModelProfile::uniform("strong", 0.9), &suite, &cfg).unwrap();
        assert!(
            strong.pass_at(1) > weak.pass_at(1),
            "strong {} <= weak {}",
            strong.pass_at(1),
            weak.pass_at(1)
        );
    }

    #[test]
    fn pass_at_5_at_least_pass_at_1() {
        let suite = small_suite();
        let r = evaluate(
            &ModelProfile::uniform("mid", 0.6),
            &suite,
            &EvalConfig {
                n: 5,
                temperatures: vec![0.2],
                ..EvalConfig::default()
            },
        )
        .unwrap();
        assert!(r.pass_at(5) >= r.pass_at(1));
        assert!(r.syntax_pass_at(1) >= r.pass_at(1));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let suite = small_suite();
        let cfg = EvalConfig::quick(3);
        let a = evaluate(&ModelProfile::uniform("m", 0.5), &suite, &cfg).unwrap();
        let b = evaluate(&ModelProfile::uniform("m", 0.5), &suite, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_samples_is_rejected() {
        let cfg = EvalConfig {
            n: 0,
            ..EvalConfig::default()
        };
        let r = evaluate(&ModelProfile::uniform("m", 0.5), &small_suite(), &cfg);
        assert_eq!(r, Err(EvalError::ZeroSamples));
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let cfg = EvalConfig {
            temperatures: vec![],
            ..EvalConfig::quick(1)
        };
        let r = evaluate(&ModelProfile::uniform("m", 0.5), &small_suite(), &cfg);
        assert_eq!(r, Err(EvalError::NoTemperatures));
    }

    #[test]
    fn zero_budget_is_rejected() {
        let cfg = EvalConfig {
            budget: SimBudget {
                max_ticks: 0,
                ..SimBudget::default()
            },
            ..EvalConfig::quick(1)
        };
        let r = evaluate(&ModelProfile::uniform("m", 0.5), &small_suite(), &cfg);
        assert_eq!(r, Err(EvalError::InvalidBudget));
    }

    #[test]
    fn zero_attempt_retry_is_rejected() {
        let cfg = EvalConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                backoff_base_ms: 0,
            },
            ..EvalConfig::quick(1)
        };
        let r = evaluate(&ModelProfile::uniform("m", 0.5), &small_suite(), &cfg);
        assert_eq!(r, Err(EvalError::InvalidRetry));
    }

    #[test]
    fn starved_budget_exhausts_instead_of_hanging() {
        // Under a starved budget every simulated sample hits the tick
        // limit: the run completes, nothing passes functionally, and the
        // exhaustion is counted — not silently folded into mismatches.
        let suite = small_suite();
        let cfg = EvalConfig {
            budget: SimBudget::starved(),
            retry: RetryPolicy::none(),
            static_gate: false,
            ..EvalConfig::quick(2)
        };
        let r = evaluate(&ModelProfile::uniform("perfect", 1.0), &suite, &cfg).unwrap();
        assert_eq!(r.pass_at(1), 0.0);
        assert!(r.exhausted() > 0, "expected counted budget exhaustion");
        // Budget exhaustion is not a syntax failure.
        assert_eq!(r.syntax_pass_at(1), 100.0);
    }

    #[test]
    fn static_gate_is_transparent_on_clean_code() {
        // A perfect model emits only conventional, analyzer-clean designs,
        // so gating must not change any verdict — and must skip nothing.
        let suite = small_suite();
        let gated = EvalConfig::quick(3);
        let ungated = EvalConfig {
            static_gate: false,
            ..EvalConfig::quick(3)
        };
        let profile = ModelProfile::uniform("perfect", 1.0);
        let g = evaluate(&profile, &suite, &gated).unwrap();
        let u = evaluate(&profile, &suite, &ungated).unwrap();
        assert_eq!(g.skipped_sims(), 0);
        assert_eq!(g.pass_at(1), u.pass_at(1));
        assert_eq!(g.syntax_pass_at(1), u.syntax_pass_at(1));
    }

    #[test]
    fn static_gate_skips_simulations_on_hallucinated_code() {
        // A weak model hallucinates often; on counter tasks the common
        // convention slip is dropping the reset branch, which the analyzer
        // proves fatal (SA-XSOURCE). The gate should short-circuit a
        // nonzero number of those candidates without altering pass@k.
        let suite: Vec<_> = suites::verilog_eval_machine(1)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 9 == 7) // the counter tasks
            .map(|(_, t)| t)
            .take(8)
            .collect();
        let gated = EvalConfig::quick(6);
        let ungated = EvalConfig {
            static_gate: false,
            ..EvalConfig::quick(6)
        };
        let profile = ModelProfile::uniform("weak", 0.5);
        let g = evaluate(&profile, &suite, &gated).unwrap();
        let u = evaluate(&profile, &suite, &ungated).unwrap();
        assert!(
            g.skipped_sims() > 0,
            "expected the gate to skip some simulations for a weak model"
        );
        assert_eq!(
            g.pass_at(1),
            u.pass_at(1),
            "gating must not change functional verdicts"
        );
        assert_eq!(g.syntax_pass_at(1), u.syntax_pass_at(1));
    }

    #[test]
    fn analyzer_v2_gate_keeps_passk_bit_identical() {
        // The analyzer-v2 upgrade adds Warn-severity value rules
        // (SA-XPROP, SA-SIGNRANGE, SA-CDC, SA-RESET) and witness-based
        // confirmation; `StaticReport::has_errors` gates only on
        // findings that are Error-severity *and* not unconfirmed, so the
        // gating set is exactly the structural Error set v1 had. Pin
        // that: across model strengths, every pass@k metric is identical
        // with the upgraded gate on and off except for candidates the
        // gate short-circuits — whose verdicts must not change.
        assert_eq!(haven_verilog::ANALYZER_VERSION, 2);
        let suite = small_suite();
        for accuracy in [0.4, 0.7, 1.0] {
            let profile = ModelProfile::uniform("m", accuracy);
            let gated = evaluate(&profile, &suite, &EvalConfig::quick(4)).unwrap();
            let ungated = evaluate(
                &profile,
                &suite,
                &EvalConfig {
                    static_gate: false,
                    ..EvalConfig::quick(4)
                },
            )
            .unwrap();
            for k in [1, 4] {
                assert_eq!(
                    gated.pass_at(k),
                    ungated.pass_at(k),
                    "pass@{k} drifted under the v2 gate at accuracy {accuracy}"
                );
                assert_eq!(gated.syntax_pass_at(k), ungated.syntax_pass_at(k));
            }
        }
    }

    /// Strips the cache-utilization counter so results can be compared
    /// for the *metrics* memoization must not change.
    fn without_dedup_counts(mut r: SuiteResult) -> SuiteResult {
        for t in &mut r.tasks {
            t.dedup_hits = 0;
        }
        r
    }

    #[test]
    fn memoization_leaves_every_metric_bit_identical() {
        let suite = small_suite();
        for accuracy in [0.4, 0.9] {
            let profile = ModelProfile::uniform("m", accuracy);
            let on = EvalConfig::quick(6);
            let off = EvalConfig {
                memoize: false,
                ..EvalConfig::quick(6)
            };
            let with = evaluate(&profile, &suite, &on).unwrap();
            let without = evaluate(&profile, &suite, &off).unwrap();
            assert_eq!(without.dedup_hits(), 0, "disabled cache must never hit");
            assert_eq!(
                without_dedup_counts(with),
                without_dedup_counts(without),
                "memoization changed an observable metric at accuracy {accuracy}"
            );
        }
    }

    #[test]
    fn memoization_dedups_identical_generations() {
        // A deterministic perfect model emits the same source for every
        // sample of a task, so all but the first replay from the cache.
        let suite = small_suite();
        let r = evaluate(
            &ModelProfile::uniform("perfect", 1.0),
            &suite,
            &EvalConfig::quick(4),
        )
        .unwrap();
        assert_eq!(r.pass_at(1), 100.0);
        assert!(
            r.dedup_hits() > 0,
            "identical generations should hit the cache"
        );
    }

    #[test]
    fn sweep_compiles_each_source_once_and_plans_each_task_once() {
        use std::collections::HashSet;
        // Every task's distinct sources fit the cache a few times over,
        // the whole suite's do not: only task-major order keeps a
        // source cached until the next temperature regenerates it.
        let suite: Vec<_> = suites::verilog_eval_machine(1)
            .into_iter()
            .take(24)
            .collect();
        let profile = ModelProfile::uniform("mid", 0.6);
        let cfg = EvalConfig {
            n: 6,
            temperatures: vec![0.2, 0.5, 0.8],
            threads: 2,
            ..EvalConfig::default()
        };
        // A compiling source is cached, so the bound allows it one miss
        // per task; a failing one misses once per temperature that
        // generates it (the memo folds repeats within a temperature).
        let probe = Engine::uncached(cfg.backend, cfg.budget);
        let (mut compiling, mut failing, mut widest) = (0, 0, 0);
        for task in &suite {
            let mut ok = HashSet::new();
            for &temp in &cfg.temperatures {
                let model = CodeGenModel::new(profile.clone(), temp);
                let sources: HashSet<_> = (0..cfg.n)
                    .map(|s| model.generate(&task.prompt, &task.id, s))
                    .collect();
                let (pass, fail): (Vec<_>, Vec<_>) =
                    sources.into_iter().partition(|s| probe.prepare(s).is_ok());
                failing += fail.len();
                ok.extend(pass);
            }
            compiling += ok.len();
            widest = widest.max(ok.len());
        }
        let engine = Engine::new(EngineOptions {
            cache_capacity: 4 * widest,
            ..engine_options(&cfg)
        });
        assert!(compiling > engine.stats().capacity, "suite fits the cache");

        let plans = AtomicUsize::new(0);
        let count_plans = |task: &BenchTask| {
            plans.fetch_add(1, Ordering::Relaxed);
            TaskPlan::new(task)
        };
        let r = run_sweep(&engine, &profile, &suite, &cfg, None, &count_plans).unwrap();
        assert_eq!(r, evaluate(&profile, &suite, &cfg).unwrap());
        let stats = engine.stats();
        assert!(
            stats.misses as usize <= compiling + failing,
            "{stats:?}: {compiling} compiling and {failing} failing sources"
        );
        assert_eq!(plans.into_inner(), suite.len(), "one plan per task");
    }

    #[test]
    fn interpreter_backend_agrees_with_compiled() {
        let suite = small_suite();
        let profile = ModelProfile::uniform("mid", 0.6);
        let compiled = evaluate(&profile, &suite, &EvalConfig::quick(4)).unwrap();
        let interp = evaluate(
            &profile,
            &suite,
            &EvalConfig {
                backend: SimBackend::Interpreter,
                ..EvalConfig::quick(4)
            },
        )
        .unwrap();
        assert_eq!(compiled, interp, "backends must be verdict-equivalent");
    }

    #[test]
    fn starved_budget_exhausts_under_interpreter_backend_too() {
        // PR 2's exhaustion accounting must hold on both engines.
        let suite = small_suite();
        for backend in [SimBackend::Compiled, SimBackend::Interpreter] {
            let cfg = EvalConfig {
                budget: SimBudget::starved(),
                retry: RetryPolicy::none(),
                static_gate: false,
                backend,
                ..EvalConfig::quick(2)
            };
            let r = evaluate(&ModelProfile::uniform("perfect", 1.0), &suite, &cfg).unwrap();
            assert_eq!(r.pass_at(1), 0.0, "{backend:?}");
            assert!(r.exhausted() > 0, "{backend:?}: uncounted exhaustion");
            assert_eq!(r.syntax_pass_at(1), 100.0, "{backend:?}");
        }
    }

    #[test]
    fn formal_oracle_confirms_a_perfect_model() {
        // Perfect generations are bit-identically the golden emission,
        // so every formal query must prove equivalence and no metric may
        // move relative to an oracle-free run.
        let suite = small_suite();
        let profile = ModelProfile::uniform("perfect", 1.0);
        let off = evaluate(&profile, &suite, &EvalConfig::quick(2)).unwrap();
        let on = evaluate(
            &profile,
            &suite,
            &EvalConfig {
                formal_oracle: true,
                ..EvalConfig::quick(2)
            },
        )
        .unwrap();
        assert_eq!(on.pass_at(1), 100.0);
        assert_eq!(on.pass_at(1), off.pass_at(1));
        assert!(on.formal_checked() > 0, "oracle never consulted");
        assert_eq!(on.formal_refuted(), 0);
        assert_eq!(
            on.formal_checked(),
            on.formal_equivalent() + on.formal_refuted() + on.formal_unknown()
        );
        assert_eq!(off.formal_checked(), 0, "oracle off must not run");
    }

    #[test]
    fn formal_oracle_never_raises_passk() {
        // The oracle can only demote cosim passes (refutation) or leave
        // them standing — pass@k with the oracle on is bounded above by
        // pass@k with it off, at every model strength.
        let suite = small_suite();
        for accuracy in [0.4, 0.7] {
            let profile = ModelProfile::uniform("m", accuracy);
            let off = evaluate(&profile, &suite, &EvalConfig::quick(4)).unwrap();
            let on = evaluate(
                &profile,
                &suite,
                &EvalConfig {
                    formal_oracle: true,
                    ..EvalConfig::quick(4)
                },
            )
            .unwrap();
            assert!(
                on.pass_at(1) <= off.pass_at(1),
                "oracle raised pass@1 at accuracy {accuracy}: {} > {}",
                on.pass_at(1),
                off.pass_at(1)
            );
            // Syntax metrics are upstream of the oracle.
            assert_eq!(on.syntax_pass_at(1), off.syntax_pass_at(1));
        }
    }

    #[test]
    fn sicot_helps_on_symbolic_tasks() {
        let suite: Vec<_> = suites::symbolic44(1).into_iter().take(16).collect();
        let profile = haven_lm::profiles::base_codeqwen();
        let plain = evaluate(&profile, &suite, &EvalConfig::quick(4)).unwrap();
        let cfg = EvalConfig {
            sicot: SicotMode::SelfRefine,
            ..EvalConfig::quick(4)
        };
        let refined = evaluate(&profile, &suite, &cfg).unwrap();
        assert!(
            refined.pass_at(1) > plain.pass_at(1),
            "SI-CoT {} <= plain {}",
            refined.pass_at(1),
            plain.pass_at(1)
        );
    }
}

#[cfg(test)]
mod result_tests {
    use super::*;

    fn result() -> SuiteResult {
        SuiteResult {
            model: "m".into(),
            best_temperature: 0.2,
            tasks: vec![
                TaskResult {
                    task_id: "a/000".into(),
                    n: 10,
                    c_syntax: 10,
                    c_func: 10,
                    skipped_sims: 0,
                    faults: 0,
                    exhausted: 0,
                    retries: 0,
                    dedup_hits: 4,
                    formal_checked: 8,
                    formal_equivalent: 6,
                    formal_refuted: 1,
                    formal_unknown: 1,
                },
                TaskResult {
                    task_id: "a/001".into(),
                    n: 10,
                    c_syntax: 10,
                    c_func: 5,
                    skipped_sims: 2,
                    faults: 0,
                    exhausted: 1,
                    retries: 2,
                    dedup_hits: 1,
                    formal_checked: 5,
                    formal_equivalent: 4,
                    formal_refuted: 1,
                    formal_unknown: 0,
                },
                TaskResult {
                    task_id: "b/000".into(),
                    n: 10,
                    c_syntax: 2,
                    c_func: 0,
                    skipped_sims: 1,
                    faults: 3,
                    exhausted: 0,
                    retries: 6,
                    dedup_hits: 0,
                    formal_checked: 0,
                    formal_equivalent: 0,
                    formal_refuted: 0,
                    formal_unknown: 0,
                },
            ],
            batch: EvalBatchStats::default(),
        }
    }

    #[test]
    fn pass_counts_round_expected_single_attempt_passes() {
        // Σ c/n = 1.0 + 0.5 + 0.0 = 1.5 → rounds to 2 of 3.
        assert_eq!(result().pass_counts(), (2, 3));
    }

    #[test]
    fn filtered_keeps_only_named_tasks() {
        let r = result().filtered(&["a/000", "b/000"]);
        assert_eq!(r.tasks.len(), 2);
        assert_eq!(r.pass_at(1), 50.0);
        assert_eq!(result().filtered(&[]).tasks.len(), 0);
    }

    #[test]
    fn syntax_rate_bounds_functional_rate() {
        let r = result();
        assert!(r.syntax_pass_at(1) >= r.pass_at(1));
    }

    #[test]
    fn fault_counters_aggregate_across_tasks() {
        let r = result();
        assert_eq!(r.faults(), 3);
        assert_eq!(r.exhausted(), 1);
        assert_eq!(r.retries(), 8);
        assert_eq!(r.dedup_hits(), 5);
        assert_eq!(r.formal_checked(), 13);
        assert_eq!(r.formal_equivalent(), 10);
        assert_eq!(r.formal_refuted(), 2);
        assert_eq!(r.formal_unknown(), 1);
    }

    #[test]
    fn faulted_record_quarantines_every_sample() {
        let t = TaskResult::faulted("x/000", 10);
        assert_eq!(t.faults, 10);
        assert_eq!(t.c_syntax, 0);
        assert_eq!(t.c_func, 0);
    }
}
