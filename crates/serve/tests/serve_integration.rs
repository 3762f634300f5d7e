//! End-to-end tests of the serving layer: admission accounting under
//! faults and deadlines, cache soundness, and worker-count invariance.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use haven_eval::{FaultPlan, RetryPolicy};
use haven_lm::model::CodeGenModel;
use haven_lm::profiles;
use haven_serve::{
    EngineConfig, Rejection, ServeConfig, ServeOutcome, ServeReply, ServeRequest, ServeResponse,
    Server,
};

fn model(name: &str) -> CodeGenModel {
    CodeGenModel::new(profiles::ModelProfile::uniform(name, 1.0), 0.2)
}

fn flaky_model() -> CodeGenModel {
    // Mid-skill model: produces a mix of passing, mismatching and
    // syntax-broken designs across prompts — a realistic serving mix.
    CodeGenModel::new(profiles::ModelProfile::uniform("flaky", 0.55), 0.5)
}

/// A small mix of prompts: canonical benchmark tasks (distinct intents,
/// so distinct cache keys) plus one the perception layer cannot
/// understand (→ Unchecked).
fn prompt_mix() -> Vec<String> {
    let mut prompts: Vec<String> = haven_eval::suites::verilog_eval_machine(1)
        .into_iter()
        .take(8)
        .map(|t| t.prompt)
        .collect();
    assert_eq!(prompts.len(), 8);
    prompts.push("Ponder the sound of one hand clapping.".to_string());
    prompts
}

fn drain_all(server: &Server, requests: Vec<ServeRequest>) -> Vec<ServeReply> {
    let (tx, rx) = channel();
    for request in requests {
        server.submit(request, tx.clone());
    }
    drop(tx);
    rx.into_iter().collect()
}

fn payload(reply: &ServeReply) -> Option<&ServeResponse> {
    match &reply.outcome {
        ServeOutcome::Completed(r) => Some(r),
        _ => None,
    }
}

#[test]
fn every_admitted_request_is_accounted_under_fault_injection() {
    let mut server = Server::start(
        flaky_model(),
        ServeConfig {
            workers: 4,
            // High transient fault rate: panics, stalls and corruption
            // all fire, and retries must clear the transient ones.
            engine: EngineConfig {
                fault_plan: Some(FaultPlan::transient(42, 0.5)),
                ..EngineConfig::default()
            },
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base_ms: 0,
            },
            ..ServeConfig::default()
        },
    );
    let requests: Vec<ServeRequest> = prompt_mix()
        .into_iter()
        .cycle()
        .take(40)
        .enumerate()
        .map(|(i, p)| ServeRequest::new(format!("q{i}"), format!("{p} // variant {}", i % 20)))
        .collect();
    let replies = drain_all(&server, requests);
    assert_eq!(replies.len(), 40, "every request gets exactly one reply");
    server.shutdown();

    let m = server.metrics();
    assert_eq!(m.submitted, 40);
    assert_eq!(m.admitted, 40);
    assert!(
        m.accounted(),
        "admitted ({}) != completed ({}) + rejected ({}) + failed ({})",
        m.admitted,
        m.completed,
        m.rejected,
        m.failed
    );
    // Transient faults at rate 0.5 across 40 requests: retries certainly
    // fired, and with 3 attempts vs 2 persist-attempts they all cleared.
    assert!(m.retries > 0, "transient faults must burn retries");
    assert_eq!(m.failed, 0, "transient faults must clear within retries");
}

#[test]
fn permanent_faults_surface_as_typed_failures_not_panics() {
    let mut server = Server::start(
        model("perfect"),
        ServeConfig {
            workers: 2,
            engine: EngineConfig {
                fault_plan: Some(FaultPlan::permanent(7, 1.0)),
                ..EngineConfig::default()
            },
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_base_ms: 0,
            },
            ..ServeConfig::default()
        },
    );
    let requests: Vec<ServeRequest> = prompt_mix()
        .into_iter()
        .enumerate()
        .map(|(i, p)| ServeRequest::new(format!("f{i}"), p))
        .collect();
    let n = requests.len() as u64;
    let replies = drain_all(&server, requests);
    assert_eq!(replies.len() as u64, n);
    server.shutdown();

    let m = server.metrics();
    assert!(m.accounted(), "accounting must survive permanent faults");
    // Rate 1.0 faults every attempt; WorkerPanic / SourceCorruption end
    // as Failed, SimStall persists into a ResourceExhausted completion —
    // except on unverifiable prompts, where the starved budget is never
    // reached and the response stays Unchecked.
    for reply in &replies {
        match &reply.outcome {
            ServeOutcome::Failed { detail } => assert!(!detail.is_empty()),
            ServeOutcome::Completed(r) => assert!(
                !r.cacheable() || matches!(r.verdict, haven_serve::ServeVerdict::Unchecked { .. }),
                "a permanently faulted completion must be fault-class: {:?}",
                r.verdict
            ),
            ServeOutcome::Rejected(r) => panic!("unexpected rejection: {r}"),
        }
    }
    assert_eq!(
        server.cache_len(),
        0,
        "no faulted outcome may enter the cache"
    );
}

#[test]
fn cache_hit_is_bit_identical_to_the_cold_response() {
    let mut server = Server::start(flaky_model(), ServeConfig::default());
    let prompts = prompt_mix();
    let cold: Vec<ServeReply> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| server.serve(ServeRequest::new(format!("cold{i}"), p.clone())))
        .collect();
    let warm: Vec<ServeReply> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| server.serve(ServeRequest::new(format!("warm{i}"), p.clone())))
        .collect();
    for (c, w) in cold.iter().zip(&warm) {
        let (cp, wp) = (payload(c).unwrap(), payload(w).unwrap());
        assert_eq!(cp, wp, "cached payload must replay bit-identically");
        assert!(!c.cache_hit);
        assert!(w.cache_hit, "identical prompt must hit the cache");
        // Envelope stays per-request: ids differ, payloads don't.
        assert_ne!(c.id, w.id);
    }
    server.shutdown();
    let m = server.metrics();
    assert_eq!(m.cache_hits, warm.len() as u64);
    assert_eq!(m.cache_misses, cold.len() as u64);
    assert!(m.accounted());
}

#[test]
fn deadline_rejected_requests_are_typed_and_never_cached() {
    let mut server = Server::start(
        model("perfect"),
        ServeConfig {
            workers: 1,
            // The modeled inference call takes far longer than the
            // deadline, so every request times out at the generate stage.
            engine: EngineConfig {
                inference_latency: Duration::from_secs(5),
                ..EngineConfig::default()
            },
            default_deadline: Duration::from_millis(30),
            ..ServeConfig::default()
        },
    );
    let reply = server.serve(ServeRequest::new("d0", prompt_mix().remove(0)));
    match &reply.outcome {
        ServeOutcome::Rejected(Rejection::DeadlineExceeded { elapsed_ms, .. }) => {
            assert!(*elapsed_ms >= 30, "deadline fired early: {elapsed_ms} ms");
        }
        other => panic!("expected deadline rejection, got {other:?}"),
    }
    assert_eq!(
        server.cache_len(),
        0,
        "deadline-rejected requests must never be cached"
    );
    server.shutdown();
    let m = server.metrics();
    assert_eq!(m.rejected, 1);
    assert!(m.accounted());
    assert!(
        m.deadline_by_stage.iter().any(|(_, n)| *n > 0),
        "the rejection must be attributed to a stage"
    );
}

#[test]
fn full_queue_rejects_with_backpressure() {
    let mut server = Server::start(
        model("perfect"),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            // Slow the pipeline down so the queue actually fills.
            engine: EngineConfig {
                inference_latency: Duration::from_millis(200),
                ..EngineConfig::default()
            },
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    let prompts = prompt_mix();
    let (tx, rx) = channel();
    // Burst far past capacity: 1 in flight + 2 queued fit; the rest must
    // be refused synchronously with a typed QueueFull.
    let mut admitted = 0;
    for i in 0..10 {
        if server.submit(
            ServeRequest::new(format!("b{i}"), prompts[i % prompts.len()].clone()),
            tx.clone(),
        ) {
            admitted += 1;
        }
    }
    drop(tx);
    let replies: Vec<ServeReply> = rx.into_iter().collect();
    assert_eq!(replies.len(), 10, "refusals also produce replies");
    let queue_full = replies
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                ServeOutcome::Rejected(Rejection::QueueFull { capacity: 2 })
            )
        })
        .count();
    assert!(queue_full >= 10 - 3, "burst must shed load: {queue_full}");
    assert_eq!(admitted + queue_full, 10);
    server.shutdown();
    let m = server.metrics();
    assert_eq!(m.queue_full as usize, queue_full);
    assert_eq!(m.admitted as usize, admitted);
    assert!(m.accounted());
}

#[test]
fn invalid_requests_are_refused_before_admission() {
    let mut server = Server::start(model("perfect"), ServeConfig::default());
    let empty = server.serve(ServeRequest::new("e", "   "));
    assert!(matches!(
        empty.outcome,
        ServeOutcome::Rejected(Rejection::Invalid { .. })
    ));
    let nul = server.serve(ServeRequest::new("n", "prompt\0with nul"));
    assert!(matches!(
        nul.outcome,
        ServeOutcome::Rejected(Rejection::Invalid { .. })
    ));
    server.shutdown();
    let m = server.metrics();
    assert_eq!(m.invalid, 2);
    assert_eq!(m.admitted, 0);
    assert!(m.accounted());
}

#[test]
fn reply_payloads_are_invariant_across_worker_counts() {
    let prompts = prompt_mix();
    let run = |workers: usize| -> Vec<(String, Option<ServeResponse>)> {
        let mut server = Server::start(
            flaky_model(),
            ServeConfig {
                workers,
                cache_capacity: 0, // isolate the pipeline, not the cache
                ..ServeConfig::default()
            },
        );
        let requests: Vec<ServeRequest> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| ServeRequest::new(format!("w{i}"), p.clone()))
            .collect();
        let mut replies = drain_all(&server, requests);
        server.shutdown();
        assert!(server.metrics().accounted());
        replies.sort_by(|a, b| a.id.cmp(&b.id));
        replies
            .into_iter()
            .map(|r| {
                let payload = match r.outcome {
                    ServeOutcome::Completed(response) => Some(response),
                    _ => None,
                };
                (r.id, payload)
            })
            .collect()
    };
    let single = run(1);
    for workers in [2, 4] {
        assert_eq!(
            single,
            run(workers),
            "payloads must not depend on worker-pool size"
        );
    }
}

#[test]
fn metrics_text_snapshot_renders_after_traffic() {
    let mut server = Server::start(model("perfect"), ServeConfig::default());
    server.serve(ServeRequest::new("t", prompt_mix().remove(0)));
    server.shutdown();
    let text = server.metrics_text();
    for needle in [
        "serve_admitted_total 1",
        "serve_completed_total 1",
        "stage=\"generate\"",
        "quantile=\"p99\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn shutdown_does_not_wait_out_the_watchdog_poll() {
    let config = ServeConfig::default();
    let poll = config.stall_timeout.expect("watchdog on by default") / 8;
    let mut server = Server::start(model("idle"), config);
    // Let the watchdog finish its first scan and park for a full poll.
    std::thread::sleep(Duration::from_millis(20));
    let t = Instant::now();
    server.shutdown();
    let took = t.elapsed();
    assert!(took < poll / 2, "shutdown took {took:?} (poll {poll:?})");
}
