//! The server: bounded admission queue, worker pool, retry loop with
//! panic isolation, and graceful shutdown that drains everything admitted.
//!
//! ## Admission accounting
//!
//! Every request presented to [`Server::submit`] is either refused
//! *before* admission (counted `invalid` or `queue_full`, reply delivered
//! synchronously) or *admitted* — and every admitted request terminates in
//! exactly one of `completed` / `rejected` / `failed`, even when workers
//! panic or deadlines expire mid-pipeline. Shutdown drains the queue
//! (queued jobs still run) so the invariant holds at quiesce; it never
//! abandons admitted work.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use haven_eval::RetryPolicy;
use haven_lm::model::CodeGenModel;

use crate::cache::ResponseCache;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::pipeline::{AttemptOutcome, DeadlineClock, Engine, EngineConfig};
use crate::request::{
    Rejection, RequestTrace, ServeOutcome, ServeReply, ServeRequest, ServeVerdict, Stage,
};
use haven_spec::cosim::Verdict;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission queue capacity; a full queue refuses with
    /// [`Rejection::QueueFull`] (backpressure, never blocking the caller).
    pub queue_capacity: usize,
    /// Default per-request deadline, measured from admission.
    pub default_deadline: Duration,
    /// Verified-response cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Retry policy for fault-class outcomes (panics, harness faults,
    /// budget exhaustion) — same machinery as the eval harness.
    pub retry: RetryPolicy,
    /// Pipeline configuration (static gate, budgets, inference latency,
    /// fault injection).
    pub engine: EngineConfig,
    /// Watchdog threshold: a job still running this long after a worker
    /// picked it up is declared stalled — the watchdog resolves it with a
    /// typed failure and recycles the worker. `None` disables the
    /// watchdog. Queue wait does not count toward the threshold.
    pub stall_timeout: Option<Duration>,
    /// Store write failures tolerated before the server enters degraded
    /// mode (cache hits still served, fresh compiles shed).
    pub store_failure_threshold: u64,
    /// How long degraded mode lasts before normal serving resumes (also
    /// the retry-after hint sent with [`Rejection::Retrying`]).
    pub degraded_cooldown: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(10),
            cache_capacity: 1024,
            retry: RetryPolicy::default(),
            engine: EngineConfig::default(),
            stall_timeout: Some(Duration::from_secs(2)),
            store_failure_threshold: 3,
            degraded_cooldown: Duration::from_millis(250),
        }
    }
}

/// One admitted unit of work.
struct Job {
    request: ServeRequest,
    admitted_at: Instant,
    deadline: Duration,
    reply_to: Sender<ServeReply>,
}

/// Queue states shared between `submit` and the workers.
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
    /// Jobs popped from the queue but not yet terminally resolved.
    /// Shutdown drains until `jobs.is_empty() && in_flight == 0`, so
    /// already-admitted requests always get their reply before workers
    /// exit — queue emptiness alone is not quiescence.
    in_flight: usize,
}

/// A popped job's entry in the watchdog registry. Whoever wins the
/// `claimed` CAS — the worker finishing the pipeline, or the watchdog
/// declaring it stalled — delivers the one and only terminal reply.
#[derive(Clone)]
struct Inflight {
    claimed: Arc<AtomicBool>,
    reply_to: Sender<ServeReply>,
    id: String,
    started: Instant,
}

/// Store-health tracker driving degraded mode.
struct Health {
    /// Store write failures since the last degraded-mode entry.
    store_failures: AtomicU64,
    /// While `Some(t)` with `t` in the future, the server is degraded:
    /// cache hits are served, fresh compiles are shed with a typed
    /// `Retrying` rejection. Cleared lazily once the cooldown passes.
    degraded_until: Mutex<Option<Instant>>,
}

impl Health {
    /// Remaining degraded time, clearing the flag once expired.
    fn degraded_remaining(&self) -> Option<Duration> {
        let mut until = self.degraded_until.lock().expect("health lock poisoned");
        match *until {
            Some(t) => {
                let now = Instant::now();
                if now < t {
                    Some(t - now)
                } else {
                    *until = None;
                    None
                }
            }
            None => None,
        }
    }

    /// Records one store write failure; crossing `threshold` enters (or
    /// extends) degraded mode for `cooldown`.
    fn note_store_failure(&self, threshold: u64, cooldown: Duration, metrics: &Metrics) {
        let n = self.store_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= threshold.max(1) {
            self.store_failures.store(0, Ordering::SeqCst);
            let mut until = self.degraded_until.lock().expect("health lock poisoned");
            let now = Instant::now();
            if !matches!(*until, Some(t) if t > now) {
                Metrics::inc(&metrics.degraded_entered);
            }
            *until = Some(now + cooldown);
        }
    }
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals workers that a job arrived or shutdown began.
    wake: Condvar,
    /// Signals `shutdown` that the queue fully drained.
    drained: Condvar,
    engine: Engine,
    metrics: Arc<Metrics>,
    cache: Arc<ResponseCache>,
    retry: RetryPolicy,
    queue_capacity: usize,
    /// Jobs currently being worked, by serial — what the watchdog scans.
    inflight: Mutex<HashMap<u64, Inflight>>,
    job_serial: AtomicU64,
    /// Worker pool handles. Lives in `Shared` (not `Server`) so the
    /// watchdog can push replacement workers after recycling a stalled
    /// one; shutdown joins whatever is here at quiesce.
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_serial: AtomicU64,
    health: Health,
    store_failure_threshold: u64,
    degraded_cooldown: Duration,
}

/// The concurrent spec-to-RTL server.
pub struct Server {
    shared: Arc<Shared>,
    default_deadline: Duration,
    watchdog: Option<JoinHandle<()>>,
    stopped: AtomicBool,
}

impl Server {
    /// Starts the worker pool.
    pub fn start(model: CodeGenModel, config: ServeConfig) -> Server {
        let metrics = Arc::new(Metrics::default());
        let cache = Arc::new(ResponseCache::new(config.cache_capacity));
        let engine = Engine::new(model, config.engine.clone(), cache.clone(), metrics.clone());
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
                in_flight: 0,
            }),
            wake: Condvar::new(),
            drained: Condvar::new(),
            engine,
            metrics,
            cache,
            retry: config.retry,
            queue_capacity: config.queue_capacity.max(1),
            inflight: Mutex::new(HashMap::new()),
            job_serial: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            worker_serial: AtomicU64::new(0),
            health: Health {
                store_failures: AtomicU64::new(0),
                degraded_until: Mutex::new(None),
            },
            store_failure_threshold: config.store_failure_threshold,
            degraded_cooldown: config.degraded_cooldown,
        });
        for _ in 0..config.workers.max(1) {
            spawn_worker(&shared);
        }
        let watchdog = config.stall_timeout.map(|stall| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared, stall))
                .expect("spawn watchdog thread")
        });
        Server {
            shared,
            default_deadline: config.default_deadline,
            watchdog,
            stopped: AtomicBool::new(false),
        }
    }

    /// Submits a request. The reply is delivered on `reply_to` — either
    /// synchronously (pre-admission refusal) or from a worker once the
    /// pipeline finishes. Returns whether the request was admitted.
    pub fn submit(&self, request: ServeRequest, reply_to: Sender<ServeReply>) -> bool {
        let metrics = &self.shared.metrics;
        Metrics::inc(&metrics.submitted);
        if let Err(reason) = validate(&request) {
            Metrics::inc(&metrics.invalid);
            refuse(&request, Rejection::Invalid { reason }, &reply_to);
            return false;
        }
        let deadline = request
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(self.default_deadline);
        let mut state = self.shared.state.lock().expect("queue lock poisoned");
        if state.shutting_down {
            drop(state);
            refuse(&request, Rejection::ShuttingDown, &reply_to);
            return false;
        }
        if state.jobs.len() >= self.shared.queue_capacity {
            drop(state);
            Metrics::inc(&metrics.queue_full);
            refuse(
                &request,
                Rejection::QueueFull {
                    capacity: self.shared.queue_capacity,
                },
                &reply_to,
            );
            return false;
        }
        Metrics::inc(&metrics.admitted);
        state.jobs.push_back(Job {
            request,
            admitted_at: Instant::now(),
            deadline,
            reply_to,
        });
        drop(state);
        self.shared.wake.notify_one();
        true
    }

    /// Convenience: submit and block for the reply. Pre-admission refusals
    /// return immediately; admitted requests wait for a worker.
    pub fn serve(&self, request: ServeRequest) -> ServeReply {
        let (tx, rx) = std::sync::mpsc::channel();
        self.submit(request, tx);
        rx.recv().expect("server dropped the reply channel")
    }

    /// Snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Prometheus-style text rendering of the metrics registry.
    pub fn metrics_text(&self) -> String {
        self.metrics().render_text()
    }

    /// Entries currently in the verified-response cache.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Stops admission, waits for every admitted job — queued *and*
    /// in-flight — to reach its terminal reply, and joins the workers.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut state = self.shared.state.lock().expect("queue lock poisoned");
            state.shutting_down = true;
            self.shared.wake.notify_all();
            // Drain: admitted work still runs, and a job a worker already
            // picked up must deliver its reply before quiesce — so the
            // accounting invariant holds exactly at shutdown. A wedged
            // worker cannot stall this forever: the watchdog resolves its
            // job with a typed failure and the drain proceeds.
            while !state.jobs.is_empty() || state.in_flight > 0 {
                state = self
                    .shared
                    .drained
                    .wait(state)
                    .expect("queue lock poisoned");
            }
        }
        self.shared.wake.notify_all();
        if let Some(watchdog) = self.watchdog.take() {
            // Cut the watchdog's poll short so it sees the drained queue
            // now, not a poll later. Unparking (rather than notifying
            // `wake`) cannot steal a wake-up meant for a worker.
            watchdog.thread().unpark();
            let _ = watchdog.join();
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().expect("workers lock"));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn validate(request: &ServeRequest) -> Result<(), String> {
    if request.prompt.trim().is_empty() {
        return Err("empty prompt".into());
    }
    if request.prompt.contains('\0') {
        return Err("prompt contains NUL bytes".into());
    }
    Ok(())
}

/// Delivers a pre-admission refusal. Send errors are ignored — the caller
/// hanging up is their prerogative.
fn refuse(request: &ServeRequest, rejection: Rejection, reply_to: &Sender<ServeReply>) {
    let _ = reply_to.send(ServeReply {
        id: request.id.clone(),
        outcome: ServeOutcome::Rejected(rejection),
        cache_hit: false,
        sicot_steps: 0,
        trace: RequestTrace::default(),
    });
}

/// Spawns one worker thread and registers its handle for shutdown.
/// Called at startup and by the watchdog when recycling a stalled worker.
fn spawn_worker(shared: &Arc<Shared>) {
    let i = shared.worker_serial.fetch_add(1, Ordering::SeqCst);
    let cloned = shared.clone();
    let handle = std::thread::Builder::new()
        .name(format!("serve-worker-{i}"))
        .spawn(move || worker_loop(&cloned))
        .expect("spawn worker thread");
    shared
        .workers
        .lock()
        .expect("workers lock poisoned")
        .push(handle);
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    state.in_flight += 1;
                    break Some(job);
                }
                if state.shutting_down {
                    break None;
                }
                state = shared.wake.wait(state).expect("queue lock poisoned");
            }
        };
        let Some(job) = job else { return };
        if !run_job(shared, job) {
            // The watchdog declared this worker stalled, resolved its job
            // and already spawned a replacement: retire quietly.
            return;
        }
    }
}

/// Marks one in-flight job terminally resolved and wakes `shutdown` if
/// that was the last piece of admitted work.
fn finish_job(shared: &Shared) {
    let mut state = shared.state.lock().expect("queue lock poisoned");
    state.in_flight -= 1;
    if state.jobs.is_empty() && state.in_flight == 0 {
        shared.drained.notify_all();
    }
}

/// Scans the in-flight registry for jobs running longer than `stall`,
/// resolves each with a typed failure, and recycles the wedged worker by
/// spawning a replacement. The stalled thread itself eventually wakes,
/// loses the delivery race, and retires. Between scans it parks, so
/// `shutdown` can wake it early with an unpark.
fn watchdog_loop(shared: &Arc<Shared>, stall: Duration) {
    let poll = (stall / 8).max(Duration::from_millis(1));
    loop {
        {
            let state = shared.state.lock().expect("queue lock poisoned");
            if state.shutting_down && state.jobs.is_empty() && state.in_flight == 0 {
                return;
            }
        }
        let stalled: Vec<(u64, Inflight)> = {
            let registry = shared.inflight.lock().expect("inflight lock poisoned");
            registry
                .iter()
                .filter(|(_, e)| e.started.elapsed() >= stall)
                .map(|(&serial, e)| (serial, e.clone()))
                .collect()
        };
        for (serial, entry) in stalled {
            if entry.claimed.swap(true, Ordering::SeqCst) {
                continue; // The worker delivered in the meantime.
            }
            shared
                .inflight
                .lock()
                .expect("inflight lock poisoned")
                .remove(&serial);
            Metrics::inc(&shared.metrics.failed);
            Metrics::inc(&shared.metrics.watchdog_recycles);
            let elapsed_ms = entry.started.elapsed().as_millis() as u64;
            let _ = entry.reply_to.send(ServeReply {
                id: entry.id,
                outcome: ServeOutcome::Failed {
                    detail: format!(
                        "watchdog: worker stalled for {elapsed_ms} ms; \
                         request abandoned, worker recycled"
                    ),
                },
                cache_hit: false,
                sicot_steps: 0,
                trace: RequestTrace {
                    total_us: entry.started.elapsed().as_micros() as u64,
                    ..RequestTrace::default()
                },
            });
            finish_job(shared);
            spawn_worker(shared);
        }
        std::thread::park_timeout(poll);
    }
}

/// Runs one admitted job to its terminal state and delivers the reply.
/// Returns whether this worker should keep serving (`false` means the
/// watchdog claimed the job first — the worker has been replaced).
fn run_job(shared: &Shared, job: Job) -> bool {
    let metrics = &shared.metrics;
    let clock = DeadlineClock::new(job.admitted_at, job.deadline);
    let queue_us = job.admitted_at.elapsed().as_micros() as u64;
    metrics.record_stage(Stage::QueueWait, queue_us);

    // Register with the watchdog before any pipeline work.
    let serial = shared.job_serial.fetch_add(1, Ordering::SeqCst);
    let claimed = Arc::new(AtomicBool::new(false));
    shared
        .inflight
        .lock()
        .expect("inflight lock poisoned")
        .insert(
            serial,
            Inflight {
                claimed: claimed.clone(),
                reply_to: job.reply_to.clone(),
                id: job.request.id.clone(),
                started: Instant::now(),
            },
        );

    let mut trace = RequestTrace {
        queue_us,
        ..RequestTrace::default()
    };
    let mut cache_hit = false;
    let mut sicot_steps = 0;

    // Deadline may already have expired while queued (admission control
    // under overload): typed rejection, no pipeline work.
    let outcome = if let Err(r) = clock.check(Stage::QueueWait) {
        metrics.record_deadline(Stage::QueueWait);
        ServeOutcome::Rejected(r)
    } else if let Some(remaining) = shared.health.degraded_remaining() {
        // Degraded mode: the store (or workers) are unhealthy. Serve what
        // the verified-response cache already holds; shed fresh compiles
        // with a typed retry hint instead of risking more damage.
        let (hit, steps) = shared.engine.lookup_cached(&job.request.prompt);
        sicot_steps = steps;
        match hit {
            Some(response) => {
                cache_hit = true;
                Metrics::inc(&metrics.degraded_hits);
                ServeOutcome::Completed(Arc::unwrap_or_clone(response))
            }
            None => {
                Metrics::inc(&metrics.rejected);
                Metrics::inc(&metrics.degraded_shed);
                ServeOutcome::Rejected(Rejection::Retrying {
                    retry_after_ms: (remaining.as_millis() as u64).max(1),
                })
            }
        }
    } else {
        run_attempts(
            shared,
            &job,
            &clock,
            &mut trace,
            &mut cache_hit,
            &mut sicot_steps,
        )
    };

    // Terminal delivery: race the watchdog for the claim. The loser must
    // not touch counters or the reply channel — the job was already
    // resolved once, and resolving it twice would break the accounting
    // invariant.
    let won = !claimed.swap(true, Ordering::SeqCst);
    shared
        .inflight
        .lock()
        .expect("inflight lock poisoned")
        .remove(&serial);
    if !won {
        return false;
    }

    match &outcome {
        ServeOutcome::Completed(response) => {
            Metrics::inc(&metrics.completed);
            record_pipeline_stages(metrics, &trace);
            debug_assert!(
                !matches!(
                    response.verdict,
                    ServeVerdict::Checked(Verdict::HarnessFault(_))
                ),
                "harness faults must terminate as Failed, not Completed"
            );
        }
        // Deadline rejections inside the pipeline were already counted by
        // `run_attempts` (with their stage); nothing more to do here.
        ServeOutcome::Rejected(_) => {
            record_pipeline_stages(metrics, &trace);
        }
        ServeOutcome::Failed { .. } => {
            Metrics::inc(&metrics.failed);
            record_pipeline_stages(metrics, &trace);
        }
    }
    trace.total_us = job.admitted_at.elapsed().as_micros() as u64;
    metrics.total_latency.record(trace.total_us);

    let _ = job.reply_to.send(ServeReply {
        id: job.request.id.clone(),
        outcome,
        cache_hit,
        sicot_steps,
        trace,
    });
    finish_job(shared);
    true
}

fn record_pipeline_stages(metrics: &Metrics, trace: &RequestTrace) {
    for (stage, us) in [
        (Stage::Normalize, trace.normalize_us),
        (Stage::Generate, trace.generate_us),
        (Stage::Lint, trace.lint_us),
        (Stage::Simulate, trace.simulate_us),
    ] {
        if us > 0 {
            metrics.record_stage(stage, us);
        }
    }
}

/// The retry loop: attempts are panic-isolated; fault-class outcomes
/// (panics, harness faults, budget exhaustion) burn retry budget with
/// bounded deterministic backoff, exactly like the eval harness.
fn run_attempts(
    shared: &Shared,
    job: &Job,
    clock: &DeadlineClock,
    trace: &mut RequestTrace,
    cache_hit: &mut bool,
    sicot_steps: &mut usize,
) -> ServeOutcome {
    let metrics = &shared.metrics;
    let max_attempts = shared.retry.max_attempts.max(1);
    let mut last_fault = String::new();
    for attempt in 0..max_attempts {
        if attempt > 0 {
            Metrics::inc(&metrics.retries);
            trace.retries += 1;
            backoff(&shared.retry, attempt - 1);
            // The deadline keeps running through backoff.
            if let Err(r) = clock.check(Stage::Generate) {
                metrics.record_deadline(Stage::Generate);
                return ServeOutcome::Rejected(r);
            }
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            shared
                .engine
                .run_attempt(&job.request.prompt, clock, attempt)
        }));
        match result {
            Err(payload) => {
                // A worker panic mid-attempt: isolated here, retried like
                // any other fault-class outcome.
                last_fault = format!("worker panic: {}", panic_message(payload.as_ref()));
                continue;
            }
            Ok(attempt_result) => {
                *sicot_steps = attempt_result.sicot_steps;
                merge_trace(trace, &attempt_result.trace);
                if attempt_result.store_write_failed {
                    // The response still goes out; repeated failures tip
                    // the server into degraded mode.
                    shared.health.note_store_failure(
                        shared.store_failure_threshold,
                        shared.degraded_cooldown,
                        metrics,
                    );
                }
                match attempt_result.outcome {
                    AttemptOutcome::Deadline(rejection) => {
                        if let Rejection::DeadlineExceeded { stage, .. } = rejection {
                            metrics.record_deadline(stage);
                        }
                        return ServeOutcome::Rejected(rejection);
                    }
                    AttemptOutcome::Response(response) => {
                        match &response.verdict {
                            ServeVerdict::Checked(Verdict::HarnessFault(detail)) => {
                                last_fault = detail.clone();
                                continue;
                            }
                            // Budget exhaustion is fault-class (retried),
                            // but if it persists it is a *result* — the
                            // candidate genuinely outran the budget — so
                            // the final attempt completes with it.
                            ServeVerdict::Checked(Verdict::ResourceExhausted(detail))
                                if attempt + 1 < max_attempts =>
                            {
                                last_fault = detail.clone();
                                continue;
                            }
                            _ => {
                                *cache_hit = attempt_result.cache_hit;
                                return ServeOutcome::Completed(Arc::unwrap_or_clone(response));
                            }
                        }
                    }
                }
            }
        }
    }
    ServeOutcome::Failed { detail: last_fault }
}

/// Deterministic bounded backoff, mirroring the eval harness
/// (`base << attempt`, capped at 50 ms).
fn backoff(retry: &RetryPolicy, attempt: usize) {
    let ms = (retry.backoff_base_ms << attempt.min(16)).min(50);
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Accumulates stage timings across attempts (retries add up).
fn merge_trace(into: &mut RequestTrace, attempt: &RequestTrace) {
    into.normalize_us += attempt.normalize_us;
    into.generate_us += attempt.generate_us;
    into.lint_us += attempt.lint_us;
    into.simulate_us += attempt.simulate_us;
}

/// Renders a panic payload (mirrors the eval harness's helper).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
