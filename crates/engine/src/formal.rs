//! The formal-equivalence rung of the artifact ladder.
//!
//! [`FormalOracle`] sits on top of two prepared [`Artifact`]s and
//! answers "is the candidate equivalent to the golden design?" through
//! `haven_formal::check_equiv`, with the same caching discipline the
//! rest of the engine uses: outcomes are content-addressed by the two
//! source keys plus the full option set plus [`FORMAL_VERSION`], held in
//! a bounded LRU, and optionally written through to a
//! [`haven_store::ObjectStore`] tier as a compact versioned text
//! encoding so warm restarts skip re-proving pairs they already decided.
//!
//! Trust discipline (mirrors `crates/engine/src/witness.rs`): a
//! counterexample from the SAT layer is *never* surfaced as-is. It is
//! replayed on the scalar compiled simulator first, and only a replay
//! that observes a hard mismatch — a bit both designs drive to known,
//! different values, the only mismatch the two-valued abstraction is
//! allowed to claim — keeps the `Counterexample` verdict. An
//! unconfirmed trace degrades to `Unknown(ReplayUnconfirmed)`, which
//! consumers count but never act on. `Equivalent` verdicts need no
//! replay: they are gated inside `haven-formal` on taint-free outputs
//! and an UNSAT miter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use haven_formal::{
    check_equiv, replay_cex, CexStep, CexTrace, EquivOptions, EquivReport, EquivVerdict,
    PreambleOp, SatStats, UnknownReason,
};
use haven_verilog::CompiledDesign;

use crate::Artifact;

/// Version of the formal pipeline and of the persisted outcome encoding.
/// Bumping it invalidates every cached and persisted formal outcome at
/// once, exactly like `ANALYZER_VERSION` does for static reports.
pub const FORMAL_VERSION: u32 = 1;

/// One decided equivalence query, immutable and shareable.
#[derive(Debug, Clone, PartialEq)]
pub struct FormalOutcome {
    /// Content key of the (golden, candidate, options) triple.
    pub key: u64,
    /// The verdict and its cost counters.
    pub report: EquivReport,
    /// Whether the verdict survived scalar replay: `true` for verdicts
    /// that need no replay (`Equivalent`, `Unknown`) and for confirmed
    /// counterexamples; `false` only for the degraded
    /// `Unknown(ReplayUnconfirmed)` case.
    pub replay_confirmed: bool,
}

/// Cache and durability telemetry of a [`FormalOracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormalCacheStats {
    /// Queries answered from the in-memory LRU.
    pub hits: u64,
    /// Queries that ran the formal pipeline.
    pub misses: u64,
    /// Outcomes rebuilt from the disk tier instead of re-proved.
    pub store_loaded: u64,
    /// Outcomes persisted to the disk tier.
    pub persisted: u64,
    /// Persist attempts that failed (never fails the query).
    pub persist_failures: u64,
    /// Outcomes evicted from the LRU.
    pub evictions: u64,
    /// Outcomes currently held in memory.
    pub entries: usize,
}

/// The equivalence-checking oracle: `check_equiv` behind a
/// content-addressed LRU with an optional durable tier.
pub struct FormalOracle {
    opts: EquivOptions,
    capacity: usize,
    cache: Mutex<FormalLru>,
    hits: AtomicU64,
    misses: AtomicU64,
    store_loaded: AtomicU64,
    persisted: AtomicU64,
    persist_failures: AtomicU64,
    store: Option<haven_store::ObjectStore>,
}

#[derive(Default)]
struct FormalLru {
    entries: HashMap<u64, (Arc<FormalOutcome>, u64)>,
    clock: u64,
    evictions: u64,
}

impl FormalLru {
    fn get(&mut self, key: u64) -> Option<Arc<FormalOutcome>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|(o, stamp)| {
            *stamp = clock;
            o.clone()
        })
    }

    fn insert(&mut self, key: u64, outcome: Arc<FormalOutcome>, capacity: usize) {
        if capacity == 0 || self.entries.contains_key(&key) {
            return;
        }
        if self.entries.len() >= capacity {
            if let Some(&coldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
            {
                self.entries.remove(&coldest);
                self.evictions += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(key, (outcome, self.clock));
    }
}

impl FormalOracle {
    /// An oracle over `opts` with a memory-only cache of 256 outcomes.
    pub fn new(opts: EquivOptions) -> FormalOracle {
        FormalOracle {
            opts,
            capacity: 256,
            cache: Mutex::new(FormalLru::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_loaded: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            persist_failures: AtomicU64::new(0),
            store: None,
        }
    }

    /// Overrides the LRU capacity (0 disables caching).
    pub fn with_capacity(mut self, capacity: usize) -> FormalOracle {
        self.capacity = capacity;
        self
    }

    /// Attaches a durable tier: decided outcomes are written through as
    /// a versioned text encoding and read back on later queries, so a
    /// restarted process skips re-proving pairs it already decided.
    pub fn with_store(mut self, store: haven_store::ObjectStore) -> FormalOracle {
        self.store = Some(store);
        self
    }

    /// The option set every query of this oracle runs under.
    pub fn options(&self) -> &EquivOptions {
        &self.opts
    }

    /// The query options with a per-design reset protocol substituted
    /// in. Used by consumers whose preamble depends on the spec (the
    /// eval harness derives it from each task's reset episode).
    pub fn options_with_preamble(
        &self,
        preamble: Vec<PreambleOp>,
        clock: Option<String>,
    ) -> EquivOptions {
        EquivOptions {
            preamble,
            clock,
            ..self.opts.clone()
        }
    }

    /// Content key of one (golden, candidate) query under `opts`.
    pub fn key_for(golden: &Artifact, candidate: &Artifact, opts: &EquivOptions) -> u64 {
        let mut h = haven_hash::ContentHasher::new()
            .word(u64::from(FORMAL_VERSION))
            .word(golden.source_key)
            .word(candidate.source_key)
            .word(opts.seq_steps as u64)
            .word(opts.sat_conflicts)
            .word(opts.sim_rounds as u64)
            .word(opts.seed);
        h = match &opts.clock {
            None => h.word(0),
            Some(c) => h.word(1).part(c),
        };
        for op in &opts.preamble {
            h = match op {
                PreambleOp::Set(name, v) => h.word(2).part(name).word(*v),
                PreambleOp::Tick => h.word(3),
            };
        }
        for op in &opts.postamble {
            h = match op {
                PreambleOp::Set(name, v) => h.word(4).part(name).word(*v),
                PreambleOp::Tick => h.word(5),
            };
        }
        h.finish()
    }

    /// Decides `candidate ≡ golden` under the oracle's options, serving
    /// from cache or the durable tier when the same pair was decided
    /// before.
    pub fn check(&self, golden: &Arc<Artifact>, candidate: &Arc<Artifact>) -> Arc<FormalOutcome> {
        self.check_with(golden, candidate, &self.opts.clone())
    }

    /// [`FormalOracle::check`] with explicit per-query options (the eval
    /// harness substitutes each task's reset preamble and clock).
    pub fn check_with(
        &self,
        golden: &Arc<Artifact>,
        candidate: &Arc<Artifact>,
        opts: &EquivOptions,
    ) -> Arc<FormalOutcome> {
        let key = FormalOracle::key_for(golden, candidate, opts);
        if self.capacity > 0 {
            if let Some(hit) = self.cache.lock().expect("formal cache poisoned").get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(found) = self
            .store
            .as_ref()
            .and_then(|s| s.get(key))
            .and_then(|bytes| decode_outcome(key, &bytes))
        {
            self.store_loaded.fetch_add(1, Ordering::Relaxed);
            let outcome = Arc::new(found);
            self.remember(key, &outcome, false);
            return outcome;
        }
        let outcome = Arc::new(self.decide(key, golden, candidate, opts));
        self.remember(key, &outcome, true);
        outcome
    }

    fn remember(&self, key: u64, outcome: &Arc<FormalOutcome>, persist: bool) {
        if self.capacity > 0 {
            self.cache.lock().expect("formal cache poisoned").insert(
                key,
                outcome.clone(),
                self.capacity,
            );
        }
        if !persist {
            return;
        }
        if let Some(store) = &self.store {
            match store.put(key, encode_outcome(outcome).as_bytes()) {
                Ok(true) => {
                    self.persisted.fetch_add(1, Ordering::Relaxed);
                }
                Ok(false) => {}
                Err(_) => {
                    self.persist_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn decide(
        &self,
        key: u64,
        golden: &Arc<Artifact>,
        candidate: &Arc<Artifact>,
        opts: &EquivOptions,
    ) -> FormalOutcome {
        let g = lowered(golden);
        let c = lowered(candidate);
        let mut report = check_equiv(&g, &c, opts);
        let mut replay_confirmed = true;
        if let EquivVerdict::Counterexample(trace) = &report.verdict {
            let confirmed = replay_cex(&g, &c, trace, opts.clock.as_deref()).is_some_and(|m| {
                m.output == trace.mismatch_output && m.step == trace.mismatch_step
            });
            if !confirmed {
                report.verdict = EquivVerdict::Unknown(UnknownReason::ReplayUnconfirmed);
                replay_confirmed = false;
            }
        }
        FormalOutcome {
            key,
            report,
            replay_confirmed,
        }
    }

    /// Cache and durability counters.
    pub fn stats(&self) -> FormalCacheStats {
        let cache = self.cache.lock().expect("formal cache poisoned");
        FormalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            store_loaded: self.store_loaded.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
            persist_failures: self.persist_failures.load(Ordering::Relaxed),
            evictions: cache.evictions,
            entries: cache.entries.len(),
        }
    }

    /// Counters of the durable tier, `None` for a memory-only oracle.
    pub fn store_stats(&self) -> Option<haven_store::StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }
}

/// The compiled bytecode of an artifact, lowering on demand for
/// interpreter-keyed artifacts (same cross-backend fallback as
/// [`crate::DutSession`]).
fn lowered(artifact: &Arc<Artifact>) -> Arc<CompiledDesign> {
    match artifact.bytecode() {
        Some(b) => b.clone(),
        None => Arc::new(CompiledDesign::new(artifact.design().clone())),
    }
}

// --- persisted outcome encoding -------------------------------------------
//
// Line-oriented text, one outcome per object, first line `FORMALv<N>`.
// Verilog identifiers cannot contain whitespace, so space-separated
// fields need no escaping. Unknown tags or malformed lines fail the
// decode, and a failed decode falls back to re-proving — stale or
// damaged entries are never served.

fn encode_outcome(o: &FormalOutcome) -> String {
    let mut s = format!("FORMALv{FORMAL_VERSION}\n");
    let r = &o.report;
    s.push_str(&format!(
        "cost {} {} {} {} {}\n",
        r.aig_nodes,
        r.aig_inputs,
        u64::from(r.structural),
        r.sim_rounds_run,
        u64::from(o.replay_confirmed),
    ));
    let ss = &r.sat_stats;
    s.push_str(&format!(
        "sat {} {} {} {} {}\n",
        ss.decisions, ss.conflicts, ss.propagations, ss.restarts, ss.learned
    ));
    match &r.verdict {
        EquivVerdict::Equivalent => s.push_str("verdict equivalent\n"),
        EquivVerdict::Unknown(reason) => {
            let (tag, detail) = match reason {
                UnknownReason::InterfaceMismatch(d) => ("interface", d.as_str()),
                UnknownReason::Unsupported(d) => ("unsupported", d.as_str()),
                UnknownReason::XAbstraction(d) => ("xabstraction", d.as_str()),
                UnknownReason::SatBudget => ("satbudget", ""),
                UnknownReason::ReplayUnconfirmed => ("unreplayed", ""),
            };
            s.push_str(&format!("verdict unknown {tag} {detail}\n"));
        }
        EquivVerdict::Counterexample(t) => {
            s.push_str(&format!(
                "verdict cex {} {}\n",
                t.mismatch_step, t.mismatch_output
            ));
            for op in &t.preamble {
                match op {
                    PreambleOp::Set(name, v) => s.push_str(&format!("pre set {name} {v}\n")),
                    PreambleOp::Tick => s.push_str("pre tick\n"),
                }
            }
            for step in &t.steps {
                s.push_str("step");
                for (name, v) in &step.sets {
                    s.push_str(&format!(" {name}={v}"));
                }
                s.push('\n');
            }
            for op in &t.postamble {
                match op {
                    PreambleOp::Set(name, v) => s.push_str(&format!("post set {name} {v}\n")),
                    PreambleOp::Tick => s.push_str("post tick\n"),
                }
            }
        }
    }
    s
}

fn decode_outcome(key: u64, bytes: &[u8]) -> Option<FormalOutcome> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.lines();
    if lines.next()? != format!("FORMALv{FORMAL_VERSION}") {
        return None;
    }
    let cost: Vec<u64> = lines
        .next()?
        .strip_prefix("cost ")?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let sat: Vec<u64> = lines
        .next()?
        .strip_prefix("sat ")?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if cost.len() != 5 || sat.len() != 5 {
        return None;
    }
    let verdict_line = lines.next()?.strip_prefix("verdict ")?;
    let mut parts = verdict_line.splitn(3, ' ');
    let verdict = match parts.next()? {
        "equivalent" => EquivVerdict::Equivalent,
        "unknown" => {
            let tag = parts.next()?;
            let detail = parts.next().unwrap_or("").to_string();
            EquivVerdict::Unknown(match tag {
                "interface" => UnknownReason::InterfaceMismatch(detail),
                "unsupported" => UnknownReason::Unsupported(detail),
                "xabstraction" => UnknownReason::XAbstraction(detail),
                "satbudget" => UnknownReason::SatBudget,
                "unreplayed" => UnknownReason::ReplayUnconfirmed,
                _ => return None,
            })
        }
        "cex" => {
            let mismatch_step: usize = parts.next()?.parse().ok()?;
            let mismatch_output = parts.next()?.to_string();
            let mut preamble = Vec::new();
            let mut postamble = Vec::new();
            let mut steps = Vec::new();
            let decode_op = |rest: &str| -> Option<PreambleOp> {
                if rest == "tick" {
                    return Some(PreambleOp::Tick);
                }
                let mut f = rest.strip_prefix("set ")?.splitn(2, ' ');
                let name = f.next()?.to_string();
                let v: u64 = f.next()?.parse().ok()?;
                Some(PreambleOp::Set(name, v))
            };
            for line in lines.by_ref() {
                if let Some(rest) = line.strip_prefix("pre ") {
                    preamble.push(decode_op(rest)?);
                } else if let Some(rest) = line.strip_prefix("post ") {
                    postamble.push(decode_op(rest)?);
                } else if let Some(rest) = line.strip_prefix("step") {
                    let sets = rest
                        .split_whitespace()
                        .map(|kv| {
                            let (name, v) = kv.split_once('=')?;
                            Some((name.to_string(), v.parse().ok()?))
                        })
                        .collect::<Option<Vec<_>>>()?;
                    steps.push(CexStep { sets });
                } else {
                    return None;
                }
            }
            EquivVerdict::Counterexample(CexTrace {
                preamble,
                steps,
                postamble,
                mismatch_step,
                mismatch_output,
            })
        }
        _ => return None,
    };
    Some(FormalOutcome {
        key,
        report: EquivReport {
            verdict,
            aig_nodes: cost[0] as usize,
            aig_inputs: cost[1] as usize,
            structural: cost[2] != 0,
            sim_rounds_run: cost[3] as usize,
            sat_stats: SatStats {
                decisions: sat[0],
                conflicts: sat[1],
                propagations: sat[2],
                restarts: sat[3],
                learned: sat[4],
            },
        },
        replay_confirmed: cost[4] != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineOptions};

    const ADD: &str =
        "module add(input [7:0] a, input [7:0] b, output [7:0] y);\n assign y = a + b;\nendmodule";
    const ADD_BUG: &str = "module add(input [7:0] a, input [7:0] b, output [7:0] y);\n assign y = a + b + 8'd1;\nendmodule";
    const ADD_ALT: &str =
        "module add(input [7:0] a, input [7:0] b, output [7:0] y);\n assign y = b + a;\nendmodule";

    fn prepared(engine: &Engine, src: &str) -> Arc<Artifact> {
        engine.prepare(src).unwrap()
    }

    #[test]
    fn equivalent_pair_is_cached_by_content() {
        let engine = Engine::new(EngineOptions::default());
        let oracle = FormalOracle::new(EquivOptions::default());
        let g = prepared(&engine, ADD);
        let c = prepared(&engine, ADD_ALT);
        let first = oracle.check(&g, &c);
        assert_eq!(first.report.verdict, EquivVerdict::Equivalent);
        let second = oracle.check(&g, &c);
        assert!(
            Arc::ptr_eq(&first, &second),
            "warm check must share the outcome"
        );
        let s = oracle.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn counterexamples_are_replay_confirmed() {
        let engine = Engine::new(EngineOptions::default());
        let oracle = FormalOracle::new(EquivOptions::default());
        let outcome = oracle.check(&prepared(&engine, ADD), &prepared(&engine, ADD_BUG));
        assert!(
            matches!(outcome.report.verdict, EquivVerdict::Counterexample(_)),
            "got {:?}",
            outcome.report.verdict
        );
        assert!(outcome.replay_confirmed);
    }

    #[test]
    fn swapping_golden_and_candidate_changes_the_key() {
        let engine = Engine::new(EngineOptions::default());
        let g = prepared(&engine, ADD);
        let c = prepared(&engine, ADD_BUG);
        let opts = EquivOptions::default();
        assert_ne!(
            FormalOracle::key_for(&g, &c, &opts),
            FormalOracle::key_for(&c, &g, &opts)
        );
        // Options are key-relevant too.
        let deeper = EquivOptions {
            seq_steps: opts.seq_steps + 1,
            ..opts.clone()
        };
        assert_ne!(
            FormalOracle::key_for(&g, &c, &opts),
            FormalOracle::key_for(&g, &c, &deeper)
        );
        // A postamble probe changes coverage, so it must change the key,
        // and it must not alias the same ops appearing in the preamble.
        let probe = vec![PreambleOp::Set("rst".into(), 1), PreambleOp::Tick];
        let probed = EquivOptions {
            postamble: probe.clone(),
            ..opts.clone()
        };
        let fronted = EquivOptions {
            preamble: probe,
            ..opts.clone()
        };
        assert_ne!(
            FormalOracle::key_for(&g, &c, &opts),
            FormalOracle::key_for(&g, &c, &probed)
        );
        assert_ne!(
            FormalOracle::key_for(&g, &c, &fronted),
            FormalOracle::key_for(&g, &c, &probed)
        );
    }

    #[test]
    fn outcome_encoding_round_trips() {
        let engine = Engine::new(EngineOptions::default());
        let oracle = FormalOracle::new(EquivOptions::default());
        for (a, b) in [(ADD, ADD_ALT), (ADD, ADD_BUG)] {
            let outcome = oracle.check(&prepared(&engine, a), &prepared(&engine, b));
            let encoded = encode_outcome(&outcome);
            let decoded =
                decode_outcome(outcome.key, encoded.as_bytes()).expect("encoding must round-trip");
            assert_eq!(decoded, *outcome);
        }
        // A postamble-bearing trace (reset probe after the free steps)
        // must survive the round trip as well.
        let probed = FormalOutcome {
            key: 7,
            report: EquivReport {
                verdict: EquivVerdict::Counterexample(CexTrace {
                    preamble: vec![PreambleOp::Set("rst".into(), 1), PreambleOp::Tick],
                    steps: vec![CexStep {
                        sets: vec![("en".into(), 1)],
                    }],
                    postamble: vec![PreambleOp::Set("rst".into(), 1), PreambleOp::Tick],
                    mismatch_step: 1,
                    mismatch_output: "q".into(),
                }),
                aig_nodes: 10,
                aig_inputs: 2,
                structural: false,
                sim_rounds_run: 1,
                sat_stats: SatStats::default(),
            },
            replay_confirmed: true,
        };
        let decoded = decode_outcome(7, encode_outcome(&probed).as_bytes())
            .expect("postamble trace must round-trip");
        assert_eq!(decoded, probed);
    }

    #[test]
    fn damaged_or_versioned_out_payloads_fail_decode() {
        assert!(decode_outcome(1, b"FORMALv999\ncost 0 0 0 0 0\n").is_none());
        assert!(decode_outcome(1, b"garbage").is_none());
        assert!(decode_outcome(1, &[0xff, 0xfe]).is_none());
    }

    #[test]
    fn durable_tier_skips_reproving_across_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "haven-formal-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new(EngineOptions::default());
        {
            let oracle = FormalOracle::new(EquivOptions::default())
                .with_store(haven_store::ObjectStore::open(&dir).unwrap());
            let outcome = oracle.check(&prepared(&engine, ADD), &prepared(&engine, ADD_ALT));
            assert_eq!(outcome.report.verdict, EquivVerdict::Equivalent);
            assert_eq!(oracle.stats().persisted, 1);
        }
        let oracle = FormalOracle::new(EquivOptions::default())
            .with_store(haven_store::ObjectStore::open(&dir).unwrap());
        let outcome = oracle.check(&prepared(&engine, ADD), &prepared(&engine, ADD_ALT));
        assert_eq!(outcome.report.verdict, EquivVerdict::Equivalent);
        let s = oracle.stats();
        assert_eq!(
            (s.store_loaded, s.persisted),
            (1, 0),
            "restart must load, not re-prove: {s:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
