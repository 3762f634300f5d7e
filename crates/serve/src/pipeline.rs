//! The per-request pipeline: SI-CoT normalization → generation → static
//! lint gate → budgeted co-simulation, under a deadline clock.
//!
//! One [`Engine`] is shared by every worker. An *attempt* is one pass of
//! a request through the pipeline; the worker pool wraps attempts in
//! `catch_unwind` and retries fault-class outcomes, so everything here
//! returns typed results and may freely panic only where a fault was
//! *injected* (the panic-isolation path under test).
//!
//! ## Determinism and the cache boundary
//!
//! The generation stage seeds the model with `gen_id` — the hex of the
//! content key of the *normalized* text — never with the caller's request
//! id. Together with the deterministic model, analyzer and simulator this
//! makes the produced [`ServeResponse`] a pure function of (normalized
//! prompt, engine fingerprint), which is the property the
//! verified-response cache relies on to replay payloads bit-identically.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use haven_engine::{Engine as CompileEngine, EngineFingerprint, EngineOptions, FormalOracle};
use haven_eval::fault::{corrupt_source, FaultKind, ServeFaultKind};
use haven_eval::FaultPlan;
use haven_formal::{EquivOptions, EquivVerdict};
use haven_lm::model::CodeGenModel;
use haven_lm::perception::perceive;
use haven_sicot::SiCot;
use haven_spec::cosim::{cosimulate_batch, CosimOptions, SimBackend, SimBudget, Verdict};
use haven_spec::stimuli::stimuli_for;
use haven_store::Wal;

use crate::cache::ResponseCache;
use crate::metrics::Metrics;
use crate::request::{Rejection, RequestTrace, ServeResponse, ServeVerdict, Stage};

/// Everything that shapes the deterministic response payload, plus the
/// serving knobs that do not (inference latency, fault plan).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Short-circuit co-simulation when the dataflow analyzer proves the
    /// design defective (mirrors the eval harness's static gate).
    pub static_gate: bool,
    /// Consult the formal equivalence oracle (AIG + SAT, `haven-formal`)
    /// after a candidate passes budgeted co-simulation. A replay-confirmed
    /// counterexample overturns the `Pass` into a functional mismatch —
    /// catching hallucinations the stimulus program happened to miss —
    /// while `Unknown` outcomes leave the cosim verdict standing and are
    /// surfaced as typed telemetry. The flag is folded into the engine
    /// fingerprint, so cached responses never cross the on/off boundary.
    pub formal_oracle: bool,
    /// Resource budget for each candidate co-simulation.
    pub budget: SimBudget,
    /// Execution backend for the candidate design.
    pub backend: SimBackend,
    /// Capacity of the shared compile-artifact cache (`haven-engine`):
    /// repeated generations — common, since the cache key is the
    /// *generated source* and low-temperature models repeat themselves —
    /// skip the parse → elaborate → analyze → bytecode ladder. 0 turns
    /// artifact caching off.
    pub artifact_cache: usize,
    /// Simulated wall-clock latency of the remote CodeGen-LLM inference
    /// call. Workers block on it, so it is what concurrency overlaps;
    /// it is capped at the request's remaining deadline.
    pub inference_latency: Duration,
    /// Fault injection at the generation boundary (tests, chaos drills).
    pub fault_plan: Option<FaultPlan>,
    /// Durable state directory. When set, compile artifacts persist under
    /// `<dir>/artifacts` and verified responses are redo-logged to
    /// `<dir>/responses.wal`, so a restarted server warm-starts both
    /// caches from disk. `None` keeps everything in memory.
    pub store_dir: Option<PathBuf>,
    /// Serve-level fault injection (worker hangs, disk-write failures,
    /// store corruption, slow clients) — exercised by chaos drills; the
    /// generation-boundary `fault_plan` above stays independent.
    pub serve_fault_plan: Option<FaultPlan>,
    /// How long an injected [`ServeFaultKind::WorkerHang`] blocks the
    /// worker. Long enough for the watchdog under test to fire, short
    /// enough that the detached thread drains promptly afterwards.
    pub hang_duration: Duration,
    /// Added latency for an injected [`ServeFaultKind::SlowClient`]
    /// (models a reader draining its reply slowly).
    pub slow_client_delay: Duration,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            static_gate: true,
            formal_oracle: false,
            budget: SimBudget::default(),
            backend: SimBackend::default(),
            artifact_cache: 256,
            inference_latency: Duration::ZERO,
            fault_plan: None,
            store_dir: None,
            serve_fault_plan: None,
            hang_duration: Duration::from_millis(1500),
            slow_client_delay: Duration::from_millis(20),
        }
    }
}

/// Tracks one request's deadline from the moment it was admitted.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineClock {
    admitted: Instant,
    deadline: Duration,
}

impl DeadlineClock {
    /// A clock started at `admitted` with `deadline` to spend.
    pub fn new(admitted: Instant, deadline: Duration) -> DeadlineClock {
        DeadlineClock { admitted, deadline }
    }

    /// Milliseconds since admission.
    pub fn elapsed_ms(&self) -> u64 {
        self.admitted.elapsed().as_millis() as u64
    }

    /// Time left before the deadline, zero once expired.
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_sub(self.admitted.elapsed())
    }

    /// Errors with a typed rejection if the deadline has expired, naming
    /// the stage that was running (or about to run).
    pub fn check(&self, stage: Stage) -> Result<(), Rejection> {
        if self.admitted.elapsed() >= self.deadline {
            Err(Rejection::DeadlineExceeded {
                stage,
                elapsed_ms: self.elapsed_ms(),
            })
        } else {
            Ok(())
        }
    }
}

/// How one pipeline attempt ended. Fault-class verdicts come back as
/// `Response` too — the worker pool inspects them to drive retries.
#[derive(Debug)]
pub enum AttemptOutcome {
    /// The pipeline produced a payload (possibly fault-class).
    Response(Arc<ServeResponse>),
    /// The deadline expired mid-pipeline.
    Deadline(Rejection),
}

/// The result of one attempt, with per-stage timings and cache telemetry.
#[derive(Debug)]
pub struct Attempt {
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Whether the payload was replayed from the verified-response cache.
    pub cache_hit: bool,
    /// SI-CoT steps fired while normalizing (always runs, even on hits).
    pub sicot_steps: usize,
    /// Stage timings for this attempt (queue/total filled by the worker).
    pub trace: RequestTrace,
    /// The durable store failed to accept this attempt's redo record
    /// (injected or real). The response itself is unaffected — the worker
    /// feeds this into server health to drive degraded mode.
    pub store_write_failed: bool,
}

/// The shared request pipeline: SI-CoT refiner, serving model, static
/// gate, co-simulation oracle, verified-response cache.
pub struct Engine {
    sicot: SiCot,
    model: CodeGenModel,
    /// The shared compile engine: artifact cache + session factory.
    compiler: CompileEngine,
    /// Everything besides the prompt that changes the payload, baked into
    /// the cache key as a structured [`EngineFingerprint`]: model name
    /// and temperature, simulation backend and budget, analyzer rule-set
    /// version, static-gate switch.
    fingerprint: EngineFingerprint,
    /// The formal equivalence oracle (present only when configured): its
    /// verdict cache rides the same artifact fingerprints as the compile
    /// ladder, so repeated generations replay equivalence proofs too.
    formal: Option<FormalOracle>,
    config: EngineConfig,
    cache: Arc<ResponseCache>,
    metrics: Arc<Metrics>,
    /// Redo log of verified responses (`None` when serving in-memory).
    /// Installed only *after* startup replay, so replay can never append
    /// the records it is reading back.
    wal: Mutex<Option<Wal>>,
    /// Cache keys with a pipeline attempt currently computing them.
    /// Duplicate requests park on [`Engine::inflight_cv`] and replay the
    /// leader's cache fill instead of recomputing (single-flight).
    inflight: Mutex<HashSet<u64>>,
    /// Wakes coalesced waiters when a leader finishes (either way).
    inflight_cv: Condvar,
}

/// Single-flight leadership over one cache key. Dropping the guard —
/// normal return, deadline rejection, or unwind from an injected panic —
/// releases the key and wakes every coalesced waiter so they can re-check
/// the cache (and, if the leader produced nothing cacheable, race to
/// become the new leader).
struct FlightGuard<'a> {
    key: u64,
    inflight: &'a Mutex<HashSet<u64>>,
    cv: &'a Condvar,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut set = match self.inflight.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        set.remove(&self.key);
        drop(set);
        self.cv.notify_all();
    }
}

/// Whether an attempt serves a live request or replays a WAL record at
/// startup. Replay skips fault draws, the modeled inference latency, and
/// cache-traffic metrics: it must reconstruct yesterday's payloads, not
/// re-roll today's dice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptMode {
    Live,
    Replay,
}

impl Engine {
    /// Builds the engine. The SI-CoT refiner wraps the serving model
    /// itself, as in the paper (the CoT prompting model and the CodeGen
    /// model are the same pre-trained LLM).
    pub fn new(
        model: CodeGenModel,
        config: EngineConfig,
        cache: Arc<ResponseCache>,
        metrics: Arc<Metrics>,
    ) -> Engine {
        let options = EngineOptions {
            backend: config.backend,
            budget: config.budget,
            cache_capacity: config.artifact_cache,
            ..EngineOptions::default()
        };
        // Durable mode: compile artifacts persist under <dir>/artifacts.
        // Persistence is an optimization, so an unusable directory
        // degrades to in-memory serving rather than refusing to start.
        let compiler = match &config.store_dir {
            Some(dir) => CompileEngine::open_durable(options, dir.join("artifacts"))
                .unwrap_or_else(|_| CompileEngine::new(options)),
            None => CompileEngine::new(options),
        };
        let fingerprint = compiler
            .fingerprint()
            .with_static_gate(config.static_gate)
            .with_formal_oracle(config.formal_oracle)
            .with_model(&model.profile.name, model.temperature);
        let formal = config
            .formal_oracle
            .then(|| FormalOracle::new(EquivOptions::default()));
        let engine = Engine {
            sicot: SiCot::new(model.clone()),
            model,
            compiler,
            fingerprint,
            formal,
            config,
            cache,
            metrics,
            wal: Mutex::new(None),
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
        };
        if let Some(dir) = engine.config.store_dir.clone() {
            engine.warm_start(&dir);
        }
        engine
    }

    /// Opens the response WAL and replays every committed record whose
    /// fingerprint matches the current configuration, refilling the
    /// verified-response cache by re-running each prompt through a
    /// fault-free pipeline attempt. The WAL handle is installed only once
    /// replay is done.
    fn warm_start(&self, dir: &std::path::Path) {
        let Ok((wal, replay)) = Wal::open(dir.join("responses.wal")) else {
            return;
        };
        let fp_key = self.fingerprint.key().to_le_bytes();
        let mut seen = std::collections::HashSet::new();
        let clock = DeadlineClock::new(Instant::now(), Duration::from_secs(3600));
        for record in &replay.records {
            // Record layout: fingerprint key (u64 LE) ++ raw prompt bytes.
            if record.len() <= 8 || record[..8] != fp_key {
                continue; // Stale configuration: recompute on demand.
            }
            let Ok(prompt) = std::str::from_utf8(&record[8..]) else {
                continue;
            };
            if !seen.insert(haven_hash::content_key(&[prompt])) {
                continue;
            }
            let attempt = self.attempt_inner(prompt, &clock, 0, AttemptMode::Replay);
            if matches!(attempt.outcome, AttemptOutcome::Response(_)) {
                Metrics::inc(&self.metrics.wal_replayed);
            }
        }
        *self.wal.lock().expect("wal lock poisoned") = Some(wal);
    }

    /// The structured fingerprint of this engine's serving configuration
    /// — the second half of every response-cache key.
    pub fn fingerprint(&self) -> &EngineFingerprint {
        &self.fingerprint
    }

    /// Compile-artifact cache telemetry for this engine.
    pub fn artifact_stats(&self) -> haven_engine::CacheStats {
        self.compiler.stats()
    }

    /// Bit-parallel simulation telemetry (batched sweeps, lanes, scalar
    /// fallbacks) for this engine.
    pub fn batch_stats(&self) -> haven_engine::BatchStats {
        self.compiler.batch_stats()
    }

    /// Runs one pipeline attempt under `clock`. `attempt` is the retry
    /// index (0 = first try); it selects the injected fault (if any) and
    /// gates cache telemetry so retries don't double-count.
    ///
    /// # Panics
    ///
    /// Panics when the fault plan schedules [`FaultKind::WorkerPanic`]
    /// for this attempt — the worker pool's `catch_unwind` is the
    /// production recovery path and is exercised for real.
    pub fn run_attempt(&self, prompt: &str, clock: &DeadlineClock, attempt: usize) -> Attempt {
        self.attempt_inner(prompt, clock, attempt, AttemptMode::Live)
    }

    /// Cache-only lookup for degraded mode: normalizes the prompt and
    /// consults the verified-response cache without generating, touching
    /// the store, or bumping cache-traffic metrics. Returns the payload
    /// (if cached) and the SI-CoT step count for the reply envelope.
    pub fn lookup_cached(&self, prompt: &str) -> (Option<Arc<ServeResponse>>, usize) {
        let raw_id = haven_hash::hex16(haven_hash::content_key(&[prompt]));
        let refined = self.sicot.refine(prompt, &raw_id);
        let key = ResponseCache::key(&refined.text, &self.fingerprint);
        (self.cache.get(key), refined.steps.len())
    }

    fn attempt_inner(
        &self,
        prompt: &str,
        clock: &DeadlineClock,
        attempt: usize,
        mode: AttemptMode,
    ) -> Attempt {
        let mut trace = RequestTrace::default();

        // --- Normalize: SI-CoT rewriting of symbolic modality blocks ---
        if let Err(r) = clock.check(Stage::Normalize) {
            return deadline(r, 0, trace);
        }
        let t = Instant::now();
        // Normalization is seeded by the *raw* prompt's content key, so
        // its CoT interpretation is stable for identical raw text but
        // never leaks the caller's request id into the payload.
        let raw_id = haven_hash::hex16(haven_hash::content_key(&[prompt]));
        let refined = self.sicot.refine(prompt, &raw_id);
        trace.normalize_us = t.elapsed().as_micros() as u64;
        let sicot_steps = refined.steps.len();

        // Everything downstream depends only on the normalized text.
        let gen_key = haven_hash::content_key(&[&refined.text]);
        let gen_id = haven_hash::hex16(gen_key);
        let (fault, serve_fault) = if mode == AttemptMode::Live {
            (
                self.config
                    .fault_plan
                    .as_ref()
                    .and_then(|p| p.fault_at(&gen_id, self.model.temperature, 0, attempt)),
                self.config
                    .serve_fault_plan
                    .as_ref()
                    .and_then(|p| p.serve_fault_at(&gen_id, attempt)),
            )
        } else {
            // Replay reconstructs committed payloads: no dice.
            (None, None)
        };
        if fault == Some(FaultKind::WorkerPanic) {
            panic!("injected worker panic (gen {gen_id}, attempt {attempt})");
        }
        if serve_fault == Some(ServeFaultKind::WorkerHang) {
            // The worker thread wedges here — the watchdog's job to notice.
            // It eventually wakes and finishes the attempt, then loses the
            // delivery race to the watchdog's typed failure.
            std::thread::sleep(self.config.hang_duration);
        }

        // --- Cache lookup (bypassed when a fault is injected: the fault
        // must reach the pipeline, and its outcome must never be stored).
        let cache_key = ResponseCache::key(&refined.text, &self.fingerprint);
        if fault.is_none() {
            if let Some(hit) = self.cache.get(cache_key) {
                if attempt == 0 && mode == AttemptMode::Live {
                    Metrics::inc(&self.metrics.cache_hits);
                }
                return Attempt {
                    outcome: AttemptOutcome::Response(hit),
                    cache_hit: true,
                    sicot_steps,
                    trace,
                    store_write_failed: false,
                };
            }
            if attempt == 0 && mode == AttemptMode::Live {
                Metrics::inc(&self.metrics.cache_misses);
            }
        }

        // --- Coalesce: if another worker is already computing this exact
        // payload (same normalized prompt, same fingerprint), park on its
        // result instead of duplicating generate → lint → simulate. The
        // wait is deadline-bounded; on each wake the cache is re-checked
        // and, if the leader produced nothing replayable, the waiters
        // race to take over leadership. Faulted attempts bypass this the
        // same way they bypass the cache: sabotage must reach the
        // pipeline and its outcome must never be shared.
        let mut _flight: Option<FlightGuard<'_>> = None;
        if fault.is_none() && mode == AttemptMode::Live {
            loop {
                let mut set = match self.inflight.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let leader = set.insert(cache_key);
                if leader {
                    drop(set);
                    _flight = Some(FlightGuard {
                        key: cache_key,
                        inflight: &self.inflight,
                        cv: &self.inflight_cv,
                    });
                } else {
                    if let Err(r) = clock.check(Stage::Generate) {
                        return deadline(r, sicot_steps, trace);
                    }
                    // Bounded nap: wake on the leader's notify, or shortly
                    // anyway in case the notify raced past before we parked.
                    let wait = clock.remaining().min(Duration::from_millis(25));
                    let parked = self
                        .inflight_cv
                        .wait_timeout(set, wait)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    drop(parked);
                }
                // A new leader checks too: the previous one may have filled
                // the cache and left between the lookup above and the insert.
                if let Some(hit) = self.cache.get(cache_key) {
                    Metrics::inc(&self.metrics.coalesced);
                    return Attempt {
                        outcome: AttemptOutcome::Response(hit),
                        cache_hit: true,
                        sicot_steps,
                        trace,
                        store_write_failed: false,
                    };
                }
                if leader {
                    break;
                }
            }
        }

        // --- Generate: the (simulated) remote CodeGen-LLM call ---------
        if let Err(r) = clock.check(Stage::Generate) {
            return deadline(r, sicot_steps, trace);
        }
        let t = Instant::now();
        if !self.config.inference_latency.is_zero() && mode == AttemptMode::Live {
            // Block for the modeled inference latency, but never past the
            // deadline: a too-slow model call times out *here*, at the
            // generate stage, like a real RPC timeout would. Replay skips
            // it — warm restart must not re-pay yesterday's inference.
            std::thread::sleep(self.config.inference_latency.min(clock.remaining()));
        }
        // One reading of the normalized prompt per miss: it steers
        // generation here and supplies the golden spec at simulate.
        let perception = perceive(&refined.text);
        let (mut source, _) = self
            .model
            .generate_perceived(perception.as_ref().ok(), &gen_id, 0);
        trace.generate_us = t.elapsed().as_micros() as u64;
        if let Err(r) = clock.check(Stage::Generate) {
            return deadline(r, sicot_steps, trace);
        }
        if fault == Some(FaultKind::SourceCorruption) {
            source = corrupt_source(&source);
        }
        // Harness boundary sanity check (same contract as the eval
        // harness): damage on the wire is an infrastructure fault, not a
        // property of the prompt.
        if source.is_empty() || source.contains('\0') {
            let detail = if source.is_empty() {
                "model returned empty source".to_string()
            } else {
                "model returned source with NUL bytes".to_string()
            };
            return self.respond(
                ServeResponse {
                    code: String::new(),
                    verdict: ServeVerdict::Checked(Verdict::HarnessFault(detail)),
                    findings: vec![],
                    gated: false,
                },
                cache_key,
                fault,
                serve_fault,
                prompt,
                mode,
                sicot_steps,
                trace,
            );
        }

        // --- Lint: one engine prepare climbs the whole artifact ladder
        // (parse → elaborate → analyze → bytecode), answering from the
        // shared artifact cache for repeated generations. ---------------
        if let Err(r) = clock.check(Stage::Lint) {
            return deadline(r, sicot_steps, trace);
        }
        let t = Instant::now();
        let artifact = match self.compiler.prepare(&source) {
            Ok(a) => a,
            Err(e) => {
                trace.lint_us = t.elapsed().as_micros() as u64;
                return self.respond(
                    ServeResponse {
                        code: source,
                        verdict: ServeVerdict::Checked(Verdict::SyntaxError(e.to_string())),
                        findings: vec![],
                        gated: false,
                    },
                    cache_key,
                    fault,
                    serve_fault,
                    prompt,
                    mode,
                    sicot_steps,
                    trace,
                );
            }
        };
        let report = artifact.report.clone();
        trace.lint_us = t.elapsed().as_micros() as u64;
        if self.config.static_gate && report.has_errors() {
            // Same short-circuit (and same detail string) as the eval
            // harness: simulating a provably defective design could only
            // confirm the failure.
            return self.respond(
                ServeResponse {
                    code: source,
                    verdict: ServeVerdict::Checked(Verdict::FunctionalMismatch {
                        at_check: 0,
                        detail: "skipped by static gate: analyzer proved the design defective"
                            .into(),
                    }),
                    findings: report.findings,
                    gated: true,
                },
                cache_key,
                fault,
                serve_fault,
                prompt,
                mode,
                sicot_steps,
                trace,
            );
        }

        // --- Simulate: budgeted co-simulation against the golden model -
        if let Err(r) = clock.check(Stage::Simulate) {
            return deadline(r, sicot_steps, trace);
        }
        let t = Instant::now();
        let verdict = match &perception {
            Err(e) => ServeVerdict::Unchecked {
                reason: e.to_string(),
            },
            Ok(perception) => {
                let stimuli = stimuli_for(&perception.spec, gen_key);
                let options = CosimOptions {
                    mid_tick_checks: true,
                    // An injected stall starves the simulator through the
                    // real budget machinery — the recovery path under
                    // test is the production one.
                    budget: if fault == Some(FaultKind::SimStall) {
                        SimBudget::starved()
                    } else {
                        self.config.budget
                    },
                    backend: self.config.backend,
                };
                // Bit-parallel when the program and artifact qualify
                // (scalar fallback tallied on the engine) — the verdict
                // is bit-identical either way.
                let mut verdict = cosimulate_batch(
                    &perception.spec,
                    &self.compiler,
                    &artifact,
                    &stimuli,
                    &options,
                )
                .verdict;
                // --- Formal oracle: only a cosim Pass is escalated; a
                // replay-confirmed counterexample demotes it (the stimulus
                // program missed the bug), Unknown leaves it standing.
                // Deterministic, so replay reconstructs the same verdict;
                // only the telemetry is live-gated.
                if let (Verdict::Pass, Some(oracle)) = (&verdict, self.formal.as_ref()) {
                    let live = mode == AttemptMode::Live;
                    if live {
                        Metrics::inc(&self.metrics.formal_checked);
                    }
                    let outcome = haven_spec::formal::formal_check(
                        &self.compiler,
                        oracle,
                        &perception.spec,
                        &source,
                    );
                    match outcome.as_ref().map(|o| &o.report.verdict) {
                        Some(EquivVerdict::Counterexample(trace)) => {
                            if live {
                                Metrics::inc(&self.metrics.formal_refuted);
                            }
                            verdict = Verdict::FunctionalMismatch {
                                at_check: trace.mismatch_step,
                                detail: format!(
                                    "formal counterexample on `{}` (cosim stimuli missed it)",
                                    trace.mismatch_output
                                ),
                            };
                        }
                        Some(EquivVerdict::Equivalent) => {
                            if live {
                                Metrics::inc(&self.metrics.formal_equivalent);
                            }
                        }
                        // Undecided (or unblastable): typed telemetry, the
                        // cosim verdict stands.
                        Some(EquivVerdict::Unknown(_)) | None => {
                            if live {
                                Metrics::inc(&self.metrics.formal_unknown);
                            }
                        }
                    }
                }
                ServeVerdict::Checked(verdict)
            }
        };
        trace.simulate_us = t.elapsed().as_micros() as u64;
        self.respond(
            ServeResponse {
                code: source,
                verdict,
                findings: report.findings,
                gated: false,
            },
            cache_key,
            fault,
            serve_fault,
            prompt,
            mode,
            sicot_steps,
            trace,
        )
    }

    /// Wraps a freshly computed payload, filling the cache when the
    /// attempt was fault-free and the payload is cacheable, and appending
    /// one redo record to the response WAL per fresh cache fill.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        response: ServeResponse,
        cache_key: u64,
        fault: Option<FaultKind>,
        serve_fault: Option<ServeFaultKind>,
        prompt: &str,
        mode: AttemptMode,
        sicot_steps: usize,
        trace: RequestTrace,
    ) -> Attempt {
        let response = Arc::new(response);
        // An attempt with an injected fault never writes the cache: its
        // payload was produced under sabotage (corrupted source, starved
        // budget) and must not be replayed for honest requests.
        let mut store_write_failed = false;
        if fault.is_none() {
            let inserted = self.cache.insert(cache_key, response.clone());
            // One WAL record per *fresh* cacheable fill (insert returning
            // false means non-cacheable, capacity 0, or already present —
            // none of which need a redo record). Replay never appends:
            // the WAL handle is not even installed until replay finishes.
            if inserted && mode == AttemptMode::Live {
                store_write_failed = self.persist(prompt, serve_fault);
            }
        }
        if mode == AttemptMode::Live && serve_fault == Some(ServeFaultKind::SlowClient) {
            // The reply sits in the worker while the modeled client
            // drains slowly; payload and accounting are unaffected.
            std::thread::sleep(self.config.slow_client_delay);
        }
        Attempt {
            outcome: AttemptOutcome::Response(response),
            cache_hit: false,
            sicot_steps,
            trace,
            store_write_failed,
        }
    }

    /// Appends one redo record (fingerprint key ++ raw prompt) to the
    /// response WAL, honoring injected store faults. Returns whether the
    /// write failed — the health signal that drives degraded mode. A
    /// missing WAL (in-memory serving) is not a failure.
    fn persist(&self, prompt: &str, serve_fault: Option<ServeFaultKind>) -> bool {
        let mut guard = self.wal.lock().expect("wal lock poisoned");
        let Some(wal) = guard.as_mut() else {
            return false;
        };
        let mut record = Vec::with_capacity(8 + prompt.len());
        record.extend_from_slice(&self.fingerprint.key().to_le_bytes());
        record.extend_from_slice(prompt.as_bytes());
        match serve_fault {
            Some(ServeFaultKind::DiskWriteFail) => {
                // The disk refused the write: the response still goes out,
                // the record is simply not durable.
                Metrics::inc(&self.metrics.store_write_failures);
                true
            }
            Some(ServeFaultKind::StoreCorruption) => {
                // Silent media corruption: the append "succeeds" and only
                // the next restart's replay can detect and quarantine it.
                let _ = wal.append_corrupt(&record);
                Metrics::inc(&self.metrics.store_corruptions);
                false
            }
            _ => match wal.append(&record) {
                Ok(()) => {
                    Metrics::inc(&self.metrics.responses_persisted);
                    false
                }
                Err(_) => {
                    Metrics::inc(&self.metrics.store_write_failures);
                    true
                }
            },
        }
    }
}

fn deadline(rejection: Rejection, sicot_steps: usize, trace: RequestTrace) -> Attempt {
    Attempt {
        outcome: AttemptOutcome::Deadline(rejection),
        cache_hit: false,
        sicot_steps,
        trace,
        store_write_failed: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haven_lm::profiles;

    fn engine(config: EngineConfig) -> Engine {
        engine_with(config, Arc::new(ResponseCache::new(64)))
    }

    fn engine_with(config: EngineConfig, cache: Arc<ResponseCache>) -> Engine {
        let model = CodeGenModel::new(profiles::ModelProfile::uniform("perfect", 1.0), 0.2);
        Engine::new(model, config, cache, Arc::new(Metrics::default()))
    }

    fn far_clock() -> DeadlineClock {
        DeadlineClock::new(Instant::now(), Duration::from_secs(60))
    }

    const AND_PROMPT: &str = "Implement the truth table below\n\
        a b out\n0 0 0\n0 1 0\n1 0 0\n1 1 1\n\
        The module header is: `module and_gate (input a, input b, output out);`";

    #[test]
    fn perfect_model_serves_a_verified_pass() {
        let e = engine(EngineConfig::default());
        let a = e.run_attempt(AND_PROMPT, &far_clock(), 0);
        match a.outcome {
            AttemptOutcome::Response(r) => {
                assert!(r.verdict.verified_pass(), "{:?}", r.verdict);
                assert!(r.code.contains("module and_gate"));
                assert!(!r.gated);
            }
            AttemptOutcome::Deadline(r) => panic!("unexpected deadline: {r}"),
        }
        assert!(!a.cache_hit);
        assert!(a.sicot_steps > 0, "truth table should trigger SI-CoT");
    }

    #[test]
    fn second_identical_request_hits_the_cache_bit_identically() {
        let e = engine(EngineConfig::default());
        let cold = e.run_attempt(AND_PROMPT, &far_clock(), 0);
        let warm = e.run_attempt(AND_PROMPT, &far_clock(), 0);
        let (AttemptOutcome::Response(a), AttemptOutcome::Response(b)) =
            (cold.outcome, warm.outcome)
        else {
            panic!("both attempts must produce responses");
        };
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(a.as_ref(), b.as_ref(), "cache must replay bit-identically");
        // Envelope data still computed per request on hits.
        assert_eq!(cold.sicot_steps, warm.sicot_steps);
    }

    #[test]
    fn concurrent_duplicates_coalesce_onto_one_compute() {
        let metrics = Arc::new(Metrics::default());
        let model = CodeGenModel::new(profiles::ModelProfile::uniform("perfect", 1.0), 0.2);
        // A slow modeled inference call keeps the leader in flight long
        // enough for the other three workers to park on its result.
        let e = Arc::new(Engine::new(
            model,
            EngineConfig {
                inference_latency: Duration::from_millis(150),
                ..EngineConfig::default()
            },
            Arc::new(ResponseCache::new(64)),
            metrics.clone(),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let e = e.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let a = e.run_attempt(AND_PROMPT, &far_clock(), 0);
                    match a.outcome {
                        AttemptOutcome::Response(r) => r,
                        AttemptOutcome::Deadline(r) => panic!("unexpected deadline: {r}"),
                    }
                })
            })
            .collect();
        let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &responses {
            assert_eq!(
                r.as_ref(),
                responses[0].as_ref(),
                "coalesced replies must be bit-identical"
            );
        }
        let s = metrics.snapshot();
        // Exactly one request computed; the rest were served from its
        // fill — either by parking on it (coalesced) or, had a thread
        // been scheduled late, by an ordinary cache hit.
        assert_eq!(s.coalesced + s.cache_hits, 3, "{s:?}");
        assert!(s.coalesced > 0, "{s:?}");
    }

    #[test]
    fn formal_oracle_confirms_a_perfect_pass_and_counts_it() {
        let metrics = Arc::new(Metrics::default());
        let model = CodeGenModel::new(profiles::ModelProfile::uniform("perfect", 1.0), 0.2);
        let e = Engine::new(
            model,
            EngineConfig {
                formal_oracle: true,
                ..EngineConfig::default()
            },
            Arc::new(ResponseCache::new(64)),
            metrics.clone(),
        );
        let a = e.run_attempt(AND_PROMPT, &far_clock(), 0);
        match a.outcome {
            AttemptOutcome::Response(r) => {
                assert!(r.verdict.verified_pass(), "{:?}", r.verdict);
            }
            AttemptOutcome::Deadline(r) => panic!("unexpected deadline: {r}"),
        }
        let s = metrics.snapshot();
        assert_eq!(s.formal_checked, 1, "{s:?}");
        assert_eq!(s.formal_equivalent, 1, "{s:?}");
        assert_eq!((s.formal_refuted, s.formal_unknown), (0, 0), "{s:?}");
        // A cache replay of the same prompt must not re-check.
        let warm = e.run_attempt(AND_PROMPT, &far_clock(), 0);
        assert!(warm.cache_hit);
        assert_eq!(metrics.snapshot().formal_checked, 1);
    }

    #[test]
    fn formal_oracle_flag_partitions_the_response_cache() {
        // Same prompt, same shared cache: the fingerprint folds the
        // formal-oracle bit, so an oracle-on engine must not replay a
        // payload verified without the oracle (and vice versa).
        let cache = Arc::new(ResponseCache::new(64));
        let off = engine_with(EngineConfig::default(), cache.clone());
        let on = engine_with(
            EngineConfig {
                formal_oracle: true,
                ..EngineConfig::default()
            },
            cache,
        );
        assert_ne!(off.fingerprint().key(), on.fingerprint().key());
        let cold = off.run_attempt(AND_PROMPT, &far_clock(), 0);
        assert!(!cold.cache_hit);
        let cross = on.run_attempt(AND_PROMPT, &far_clock(), 0);
        assert!(
            !cross.cache_hit,
            "oracle-on engine must not replay an oracle-off payload"
        );
    }

    #[test]
    fn expired_deadline_rejects_before_generation() {
        let e = engine(EngineConfig::default());
        let clock = DeadlineClock::new(Instant::now() - Duration::from_secs(1), Duration::ZERO);
        let a = e.run_attempt(AND_PROMPT, &clock, 0);
        match a.outcome {
            AttemptOutcome::Deadline(Rejection::DeadlineExceeded { stage, .. }) => {
                assert_eq!(stage, Stage::Normalize);
            }
            other => panic!("expected deadline rejection, got {other:?}"),
        }
    }

    #[test]
    fn inference_latency_is_capped_by_the_remaining_deadline() {
        let e = engine(EngineConfig {
            inference_latency: Duration::from_secs(30),
            ..EngineConfig::default()
        });
        let clock = DeadlineClock::new(Instant::now(), Duration::from_millis(30));
        let started = Instant::now();
        let a = e.run_attempt(AND_PROMPT, &clock, 0);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "sleep must be capped at the deadline, not the full latency"
        );
        match a.outcome {
            AttemptOutcome::Deadline(Rejection::DeadlineExceeded { stage, .. }) => {
                assert_eq!(stage, Stage::Generate);
            }
            other => panic!("expected generate-stage deadline, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_escapes_for_the_worker_to_catch() {
        let e = engine(EngineConfig {
            fault_plan: Some(FaultPlan::permanent(7, 1.0)),
            ..EngineConfig::default()
        });
        // rate 1.0 schedules a fault every attempt; find a prompt whose
        // scheduled fault is the panic (the kind is content-addressed).
        let mut panicked = false;
        for i in 0..32 {
            let prompt = format!("{AND_PROMPT}\n// v{i}");
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.run_attempt(&prompt, &far_clock(), 0)
            }));
            if r.is_err() {
                panicked = true;
                break;
            }
        }
        assert!(panicked, "some prompt must draw the WorkerPanic fault");
    }

    #[test]
    fn faulted_attempts_bypass_the_cache_in_both_directions() {
        let cache = Arc::new(ResponseCache::new(64));
        // Permanent faults at rate 1.0: every attempt is sabotaged.
        let faulty = engine_with(
            EngineConfig {
                fault_plan: Some(FaultPlan::permanent(11, 1.0)),
                ..EngineConfig::default()
            },
            cache.clone(),
        );
        for i in 0..16 {
            let prompt = format!("{AND_PROMPT}\n// f{i}");
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                faulty.run_attempt(&prompt, &far_clock(), 0)
            }));
        }
        assert!(
            cache.is_empty(),
            "attempts running under an injected fault must never fill the cache"
        );
    }
}
