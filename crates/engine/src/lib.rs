//! # haven-engine
//!
//! The unified compile-and-simulate engine every simulator consumer in
//! the workspace goes through (DESIGN.md §12). It owns the full artifact
//! ladder — source → parsed AST → elaborated [`Design`] →
//! static-analysis [`StaticReport`] → `Arc<CompiledDesign>` bytecode —
//! behind a content-addressed, bounded-LRU [`Engine`] cache, hands out
//! reusable [`DutSession`]s that resolve port handles once per artifact
//! and support reset-and-rerun, and emits the single canonical
//! [`EngineFingerprint`] the serve cache, the eval memoizer and
//! `haven-lint` all consume.
//!
//! Before this crate existed, the eval harness, datagen step 8, the
//! serve pipeline, `haven-lint` and the bench binaries each re-ran
//! parse → elaborate → analyze → bytecode-compile per sample, and the
//! serve layer derived its cache fingerprint from an ad-hoc `format!`
//! string. The compile-and-verify loop is the hot inner loop of the
//! whole hallucination-mitigation pipeline (n samples × temperatures per
//! task at eval time, thousands of pairs at datagen time, every request
//! at serve time); here it is compiled once and run many times.
//!
//! ```
//! use haven_engine::{Engine, EngineOptions};
//!
//! let engine = Engine::new(EngineOptions::default());
//! let artifact = engine.prepare(
//!     "module mux(input a, input b, input sel, output y);
//!          assign y = sel ? b : a;
//!      endmodule",
//! )?;
//! assert!(!artifact.report.has_errors());
//! let mut dut = engine.session(&artifact)?;
//! dut.poke_u64("a", 1)?;
//! dut.poke_u64("sel", 0)?;
//! assert_eq!(dut.peek_u64("y")?, Some(1));
//! // A second prepare of the same source is a cache hit: same Arc.
//! let again = engine.prepare("module mux(input a, input b, input sel, output y);
//!          assign y = sel ? b : a;
//!      endmodule")?;
//! assert_eq!(engine.stats().hits, 1);
//! # let _ = again;
//! # Ok::<(), haven_verilog::VerilogError>(())
//! ```
//!
//! [`Design`]: haven_verilog::Design
//! [`StaticReport`]: haven_verilog::StaticReport

#![warn(missing_docs)]

mod artifact;
mod batch;
mod fingerprint;
mod formal;
mod session;
mod witness;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use haven_verilog::{PassConfig, Result, SimBudget};

pub use artifact::{Artifact, CacheStats};
pub use batch::{BatchSession, BatchStats};
pub use fingerprint::{EngineFingerprint, ModelFingerprint};
pub use formal::{FormalCacheStats, FormalOracle, FormalOutcome, FORMAL_VERSION};
pub use session::DutSession;
pub use witness::{replay_witness, CONFIRM_BUDGET};

use artifact::Lru;

/// Which simulation engine runs a candidate design.
///
/// Both backends are verdict-equivalent (enforced by the differential
/// property suite in `crates/spec/tests/prop_backends.rs`); they differ
/// only in speed. See DESIGN.md §10.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimBackend {
    /// The tree-walking reference interpreter
    /// ([`haven_verilog::Simulator`]).
    Interpreter,
    /// The compiled bytecode executor ([`haven_verilog::CompiledSim`]):
    /// dense signal arena, flattened expression bytecode, levelized
    /// combinational scheduling where the design qualifies.
    #[default]
    Compiled,
}

/// Engine construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Simulation backend sessions run on by default.
    pub backend: SimBackend,
    /// Resource budget sessions run under by default.
    pub budget: SimBudget,
    /// Artifacts held by the cache; 0 disables caching (every prepare
    /// rebuilds the ladder — the cold path, used as the bench baseline).
    pub cache_capacity: usize,
    /// Which netlist optimization passes run between elaboration and
    /// bytecode emission on the compiled backend. Part of the artifact
    /// cache key and the engine fingerprint: differently-optimized
    /// bytecode never aliases.
    pub passes: PassConfig,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            backend: SimBackend::default(),
            budget: SimBudget::default(),
            cache_capacity: 256,
            passes: PassConfig::full(),
        }
    }
}

/// Warm-restart telemetry for a durable engine (see
/// [`Engine::open_durable`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Artifacts rebuilt into the warm cache from disk at open.
    pub preloaded: u64,
    /// On-disk entries skipped at open because their key no longer
    /// matches the current configuration (analyzer version, backend or
    /// budget changed since they were written) or their source no longer
    /// compiles — stale state is invalidated, never served.
    pub skipped_stale: u64,
    /// Sources persisted to disk since open (best-effort; a failed write
    /// never fails the prepare that triggered it).
    pub persisted: u64,
    /// Persist attempts that failed (disk trouble or injected chaos).
    pub persist_failures: u64,
    /// Counters of the underlying object store.
    pub store: haven_store::StoreStats,
}

/// The shared compile engine: artifact cache + session factory +
/// fingerprint authority. One engine is meant to be shared by all
/// workers of a consumer (`&Engine` is `Sync`); sessions are per-worker.
pub struct Engine {
    options: EngineOptions,
    cache: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Disk tier under the LRU: sources of successfully built artifacts,
    /// keyed by the full artifact key. `None` for a memory-only engine.
    store: Option<haven_store::ObjectStore>,
    preloaded: u64,
    skipped_stale: u64,
    persisted: AtomicU64,
    persist_failures: AtomicU64,
    batch_counters: batch::BatchCounters,
}

impl Engine {
    /// Builds a memory-only engine.
    pub fn new(options: EngineOptions) -> Engine {
        Engine {
            options,
            cache: Mutex::new(Lru::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store: None,
            preloaded: 0,
            skipped_stale: 0,
            persisted: AtomicU64::new(0),
            persist_failures: AtomicU64::new(0),
            batch_counters: batch::BatchCounters::default(),
        }
    }

    /// Opens a *durable* engine whose artifact cache survives restarts:
    /// a [`haven_store::ObjectStore`] at `dir` persists the source text
    /// of every successfully built artifact under its full artifact key
    /// (source + analyzer version + backend + budget), and opening warm-
    /// starts the in-memory LRU by recompiling every still-valid entry.
    ///
    /// Because an [`Artifact`] is a pure function of (source, backend,
    /// budget), persisting the *source* is enough: recovery rebuilds
    /// bit-identical artifacts, and any entry whose recomputed key no
    /// longer matches (analyzer bumped, config changed, bytes damaged)
    /// is invalidated instead of served. Corrupt entries were already
    /// quarantined by the store's checksums before we ever see them.
    pub fn open_durable(
        options: EngineOptions,
        dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Engine> {
        Ok(Engine::with_store(
            options,
            haven_store::ObjectStore::open(dir)?,
        ))
    }

    /// [`Engine::open_durable`] over an already-opened store (lets tests
    /// and drills attach a [`haven_store::ChaosPolicy`] first).
    pub fn with_store(options: EngineOptions, store: haven_store::ObjectStore) -> Engine {
        let mut engine = Engine::new(options);
        let mut lru = Lru::default();
        let capacity = options.cache_capacity;
        let (mut preloaded, mut skipped) = (0u64, 0u64);
        if capacity > 0 {
            for entry in store.scan() {
                if preloaded as usize >= capacity {
                    break;
                }
                let Ok(source) = std::str::from_utf8(&entry.payload) else {
                    skipped += 1;
                    continue;
                };
                let key =
                    Artifact::key_for(source, options.backend, &options.budget, options.passes);
                if key != entry.key {
                    // Stale: written under a different analyzer version,
                    // pass pipeline, backend or budget. Never served.
                    skipped += 1;
                    continue;
                }
                match Artifact::build(source, options.backend, &options.budget, options.passes) {
                    Ok(artifact) => {
                        lru.insert(key, Arc::new(artifact), capacity);
                        preloaded += 1;
                    }
                    Err(_) => skipped += 1,
                }
            }
        }
        engine.cache = Mutex::new(lru);
        engine.store = Some(store);
        engine.preloaded = preloaded;
        engine.skipped_stale = skipped;
        engine
    }

    /// An engine with caching disabled — the one-shot configuration the
    /// convenience co-simulation entry points use.
    pub fn uncached(backend: SimBackend, budget: SimBudget) -> Engine {
        Engine::new(EngineOptions {
            backend,
            budget,
            cache_capacity: 0,
            passes: PassConfig::full(),
        })
    }

    /// This engine's configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The canonical fingerprint of this engine's configuration (static
    /// gate defaults to on; refine with the [`EngineFingerprint`]
    /// builders before keying caches that gate differently).
    pub fn fingerprint(&self) -> EngineFingerprint {
        EngineFingerprint::new(self.options.backend, self.options.budget)
            .with_passes(self.options.passes)
    }

    /// Climbs the artifact ladder for `source`, answering from the cache
    /// when an identical source was prepared under this configuration
    /// before. `Err` is a lex/parse/elaboration failure; failures are
    /// never cached (they are cheap to reproduce and carry no ladder).
    pub fn prepare(&self, source: &str) -> Result<Arc<Artifact>> {
        let key = Artifact::key_for(
            source,
            self.options.backend,
            &self.options.budget,
            self.options.passes,
        );
        if self.options.cache_capacity > 0 {
            if let Some(hit) = self.cache.lock().expect("artifact cache poisoned").get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(Artifact::build(
            source,
            self.options.backend,
            &self.options.budget,
            self.options.passes,
        )?);
        if self.options.cache_capacity > 0 {
            self.cache.lock().expect("artifact cache poisoned").insert(
                key,
                artifact.clone(),
                self.options.cache_capacity,
            );
        }
        if let Some(store) = &self.store {
            // Best-effort write-through: the disk tier is a warm-restart
            // accelerator, so a failed write degrades durability, never
            // the prepare that triggered it.
            match store.put(key, source.as_bytes()) {
                Ok(true) => {
                    self.persisted.fetch_add(1, Ordering::Relaxed);
                }
                Ok(false) => {}
                Err(_) => {
                    self.persist_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(artifact)
    }

    /// Opens a session on `artifact` with the engine's backend and
    /// budget. Construction runs time-zero settle and can fail with the
    /// same budget/simulation errors a direct backend construction did.
    pub fn session(&self, artifact: &Arc<Artifact>) -> Result<DutSession> {
        DutSession::new(artifact.clone(), self.options.backend, self.options.budget)
    }

    /// [`Engine::session`] with an explicit budget override (the eval
    /// harness's injected-stall fault starves one attempt this way
    /// without re-keying the artifact).
    pub fn session_with_budget(
        &self,
        artifact: &Arc<Artifact>,
        budget: SimBudget,
    ) -> Result<DutSession> {
        DutSession::new(artifact.clone(), self.options.backend, budget)
    }

    /// Warm-restart telemetry, `None` for a memory-only engine.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.store.as_ref().map(|store| DurabilityStats {
            preloaded: self.preloaded,
            skipped_stale: self.skipped_stale,
            persisted: self.persisted.load(Ordering::Relaxed),
            persist_failures: self.persist_failures.load(Ordering::Relaxed),
            store: store.stats(),
        })
    }

    /// Cache telemetry counters.
    pub fn stats(&self) -> CacheStats {
        let cache = self.cache.lock().expect("artifact cache poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: cache.evictions,
            entries: cache.len(),
            capacity: self.options.cache_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MUX: &str =
        "module mux(input a, input b, input sel, output y);\n assign y = sel ? b : a;\nendmodule";
    const CNT: &str = "module cnt(input clk, input rst_n, output reg [3:0] q);\n always @(posedge clk or negedge rst_n)\n  if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nendmodule";
    const BAD: &str =
        "module bad(input clk, output reg q);\n always @(posedge clk) q <= q;\nendmodule";

    #[test]
    fn prepare_caches_by_content() {
        let engine = Engine::new(EngineOptions::default());
        let a = engine.prepare(MUX).unwrap();
        let b = engine.prepare(MUX).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm prepare must share the artifact");
        let s = engine.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // Different content is a different artifact.
        let c = engine.prepare(CNT).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(engine.stats().misses, 2);
    }

    #[test]
    fn syntax_errors_are_returned_not_cached() {
        let engine = Engine::new(EngineOptions::default());
        assert!(engine.prepare("not verilog").is_err());
        assert!(engine.prepare("not verilog").is_err());
        let s = engine.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 2, "failures rebuild every time");
    }

    #[test]
    fn capacity_one_cache_evicts_lru() {
        let engine = Engine::new(EngineOptions {
            cache_capacity: 1,
            ..EngineOptions::default()
        });
        engine.prepare(MUX).unwrap();
        engine.prepare(CNT).unwrap(); // evicts MUX
        engine.prepare(MUX).unwrap(); // rebuild
        let s = engine.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn uncached_engine_never_hits() {
        let engine = Engine::uncached(SimBackend::Compiled, SimBudget::default());
        engine.prepare(MUX).unwrap();
        engine.prepare(MUX).unwrap();
        let s = engine.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn artifact_carries_the_static_report() {
        let engine = Engine::new(EngineOptions::default());
        assert!(!engine.prepare(CNT).unwrap().report.has_errors());
        assert!(
            engine.prepare(BAD).unwrap().report.has_errors(),
            "reset-less register must carry an Error finding"
        );
    }

    #[test]
    fn bytecode_presence_follows_the_backend() {
        let compiled = Engine::new(EngineOptions::default());
        assert!(compiled.prepare(MUX).unwrap().bytecode().is_some());
        let interp = Engine::new(EngineOptions {
            backend: SimBackend::Interpreter,
            ..EngineOptions::default()
        });
        assert!(interp.prepare(MUX).unwrap().bytecode().is_none());
    }

    #[test]
    fn sessions_reset_and_rerun_on_one_artifact() {
        for backend in [SimBackend::Compiled, SimBackend::Interpreter] {
            let engine = Engine::new(EngineOptions {
                backend,
                ..EngineOptions::default()
            });
            let artifact = engine.prepare(CNT).unwrap();
            let mut dut = engine.session(&artifact).unwrap();
            let run = |dut: &mut DutSession| -> Vec<Option<u64>> {
                dut.begin_run();
                dut.poke_u64("rst_n", 0).unwrap();
                dut.poke_u64("rst_n", 1).unwrap();
                (0..5)
                    .map(|_| {
                        dut.tick_n("clk", 1).unwrap();
                        dut.peek_u64("q").unwrap()
                    })
                    .collect()
            };
            let first = run(&mut dut);
            let handles_after_first = dut.handle_count();
            dut.reset().unwrap();
            let second = run(&mut dut);
            assert_eq!(first, second, "{backend:?}: rerun must be bit-identical");
            assert_eq!(
                dut.handle_count(),
                handles_after_first,
                "{backend:?}: reset must keep resolved handles"
            );
            assert_eq!(dut.runs(), 2);
        }
    }

    #[test]
    fn ensure_fresh_resets_only_dirty_sessions() {
        let engine = Engine::new(EngineOptions::default());
        let artifact = engine.prepare(MUX).unwrap();
        let mut dut = engine.session(&artifact).unwrap();
        assert!(!dut.ensure_fresh().unwrap(), "clean session: no reset");
        dut.poke_u64("a", 1).unwrap();
        assert!(dut.ensure_fresh().unwrap(), "driven session must reset");
        assert_eq!(dut.peek_u64("y").unwrap(), None, "poke must be undone");
    }

    #[test]
    fn missing_ports_error_lazily_with_the_backend_message() {
        let engine = Engine::new(EngineOptions::default());
        let artifact = engine.prepare(MUX).unwrap();
        let mut dut = engine.session(&artifact).unwrap();
        let err = dut.poke_u64("nope", 1).unwrap_err().to_string();
        assert!(err.contains("no signal"), "{err}");
    }

    #[test]
    fn compiled_session_on_interpreter_artifact_lowers_once() {
        // Cross-backend fallback: an interpreter-keyed artifact can still
        // serve a compiled session (bytecode lowered at session open).
        let interp = Engine::new(EngineOptions {
            backend: SimBackend::Interpreter,
            ..EngineOptions::default()
        });
        let artifact = interp.prepare(CNT).unwrap();
        let mut dut =
            DutSession::new(artifact.clone(), SimBackend::Compiled, SimBudget::default()).unwrap();
        dut.poke_u64("rst_n", 0).unwrap();
        dut.poke_u64("rst_n", 1).unwrap();
        dut.tick_n("clk", 3).unwrap();
        assert_eq!(dut.peek_u64("q").unwrap(), Some(3));
        dut.reset().unwrap();
        assert_eq!(dut.peek_u64("q").unwrap(), None, "state cleared by reset");
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "haven-engine-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_engine_warm_starts_from_disk() {
        let dir = durable_dir("warm");
        let options = EngineOptions::default();
        {
            let engine = Engine::open_durable(options, &dir).unwrap();
            engine.prepare(MUX).unwrap();
            engine.prepare(CNT).unwrap();
            let d = engine.durability_stats().unwrap();
            assert_eq!((d.preloaded, d.persisted), (0, 2));
        }
        // A fresh process: the LRU warm-starts from the persisted sources,
        // so the first prepare is already a hit.
        let engine = Engine::open_durable(options, &dir).unwrap();
        let d = engine.durability_stats().unwrap();
        assert_eq!((d.preloaded, d.skipped_stale), (2, 0));
        engine.prepare(MUX).unwrap();
        engine.prepare(CNT).unwrap();
        let s = engine.stats();
        assert_eq!((s.hits, s.misses), (2, 0), "warm restart must serve hits");
    }

    #[test]
    fn stale_configuration_entries_are_invalidated_not_served() {
        let dir = durable_dir("stale");
        {
            let engine = Engine::open_durable(EngineOptions::default(), &dir).unwrap();
            engine.prepare(MUX).unwrap();
        }
        // Same store, different backend: the recomputed key no longer
        // matches, so the entry is skipped (and the rebuilt engine
        // persists its own entry under the new key on next prepare).
        let interp = Engine::open_durable(
            EngineOptions {
                backend: SimBackend::Interpreter,
                ..EngineOptions::default()
            },
            &dir,
        )
        .unwrap();
        let d = interp.durability_stats().unwrap();
        assert_eq!((d.preloaded, d.skipped_stale), (0, 1));
        interp.prepare(MUX).unwrap();
        assert_eq!(interp.stats().misses, 1, "stale entry must rebuild");
    }

    #[test]
    fn pass_pipeline_config_rekeys_durable_entries() {
        // Same store, different pass pipeline: bytecode persisted under
        // the fully-optimizing configuration must not be served to an
        // engine that optimizes differently (the bytecode differs even
        // though the source is identical).
        let dir = durable_dir("passes");
        {
            let engine = Engine::open_durable(EngineOptions::default(), &dir).unwrap();
            engine.prepare(MUX).unwrap();
        }
        let unopt = Engine::open_durable(
            EngineOptions {
                passes: PassConfig::none(),
                ..EngineOptions::default()
            },
            &dir,
        )
        .unwrap();
        let d = unopt.durability_stats().unwrap();
        assert_eq!((d.preloaded, d.skipped_stale), (0, 1));
        unopt.prepare(MUX).unwrap();
        assert_eq!(unopt.stats().misses, 1, "re-keyed entry must rebuild");
        // And the two configurations never share an artifact key.
        assert_ne!(
            Artifact::key_for(
                MUX,
                SimBackend::Compiled,
                &SimBudget::default(),
                PassConfig::full()
            ),
            Artifact::key_for(
                MUX,
                SimBackend::Compiled,
                &SimBudget::default(),
                PassConfig::none()
            ),
        );
    }

    #[test]
    fn persist_failures_never_fail_the_prepare() {
        let dir = durable_dir("chaos");
        let store = haven_store::ObjectStore::open(&dir)
            .unwrap()
            .with_chaos(haven_store::ChaosPolicy::failing(3, 1.0));
        let engine = Engine::with_store(EngineOptions::default(), store);
        let artifact = engine.prepare(MUX).unwrap();
        assert!(!artifact.report.has_errors());
        let d = engine.durability_stats().unwrap();
        assert_eq!((d.persisted, d.persist_failures), (0, 1));
    }

    #[test]
    fn corrupted_disk_entries_fall_back_to_rebuild() {
        let dir = durable_dir("corrupt");
        {
            let engine = Engine::open_durable(EngineOptions::default(), &dir).unwrap();
            engine.prepare(MUX).unwrap();
        }
        // Flip a payload byte on disk; the store's checksum must catch it
        // at preload, quarantine the file, and the engine rebuilds cold.
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "obj"))
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let engine = Engine::open_durable(EngineOptions::default(), &dir).unwrap();
        let d = engine.durability_stats().unwrap();
        assert_eq!(d.preloaded, 0);
        assert_eq!(d.store.quarantined, 1, "damaged entry must be quarantined");
        let artifact = engine.prepare(MUX).unwrap();
        assert!(!artifact.report.has_errors(), "rebuild must still work");
        assert_eq!(engine.stats().misses, 1);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = Engine::new(EngineOptions::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let artifact = engine.prepare(CNT).unwrap();
                        let mut dut = engine.session(&artifact).unwrap();
                        dut.poke_u64("rst_n", 0).unwrap();
                        dut.poke_u64("rst_n", 1).unwrap();
                        dut.tick_n("clk", 2).unwrap();
                        assert_eq!(dut.peek_u64("q").unwrap(), Some(2));
                    }
                });
            }
        });
        let s = engine.stats();
        assert_eq!(s.hits + s.misses, 32);
        assert!(s.hits >= 28, "one build, the rest hits: {s:?}");
    }
}
