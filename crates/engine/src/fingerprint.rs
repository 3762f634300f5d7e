//! The canonical, structured engine fingerprint.
//!
//! Every cache in the workspace that replays engine-derived results — the
//! serve layer's verified-response cache, the eval harness's per-task
//! verdict memoizer, the engine's own artifact cache — must agree on what
//! "the same engine configuration" means, or a result computed under one
//! configuration could be replayed under another. [`EngineFingerprint`]
//! is the one answer: a plain struct naming everything besides the input
//! text that shapes a deterministic verdict (simulation backend, resource
//! budget, analyzer rule-set version, static-gate switch, and the serving
//! model when one is in the loop), with a stable 64-bit [`key`]
//! (built on [`haven_hash::ContentHasher`], never on `format!` strings)
//! that consumers fold into their own content keys.
//!
//! [`key`]: EngineFingerprint::key

use haven_verilog::{PassConfig, SimBudget, ANALYZER_VERSION, NETLIST_PASS_VERSION};

use crate::SimBackend;

/// The model configuration component of a fingerprint, for deployments
/// where a code-generation model sits inside the deterministic loop (the
/// serve pipeline). Temperature is carried as raw `f64` bits so the
/// struct stays `Eq` and two configs differ exactly when the floats do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelFingerprint {
    /// Model profile name.
    pub name: String,
    /// Sampling temperature, as `f64::to_bits`.
    pub temperature_bits: u64,
}

/// Everything besides the input text that shapes a deterministic
/// engine result.
///
/// Construct with [`EngineFingerprint::new`] (which pins the analyzer
/// version to the compiled-in [`ANALYZER_VERSION`]), then refine with the
/// builder methods. The derived [`key`](Self::key) changes whenever any
/// field changes and is stable across processes and releases for equal
/// fields — the property the serve cache-key tests pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineFingerprint {
    /// Simulation backend executing candidate designs.
    pub backend: SimBackend,
    /// Resource budget applied to candidate simulations.
    pub budget: SimBudget,
    /// Dataflow analyzer rule-set version
    /// ([`haven_verilog::ANALYZER_VERSION`]).
    pub analyzer_version: u32,
    /// Netlist pass-pipeline version
    /// ([`haven_verilog::NETLIST_PASS_VERSION`]). Bumped whenever a
    /// rewrite rule changes, so bytecode cached under an older pipeline
    /// is never replayed as if the current one produced it.
    pub netlist_pass_version: u32,
    /// Which netlist optimization passes run between elaboration and
    /// codegen. Two configurations that optimize differently produce
    /// different bytecode, so their results must never alias.
    pub passes: PassConfig,
    /// Whether Error-severity findings short-circuit simulation.
    pub static_gate: bool,
    /// Whether the formal equivalence oracle participates in verdicts.
    /// A formally-refuted candidate fails where a cosim-only
    /// configuration may pass it, so cached results under the two
    /// configurations must never alias.
    pub formal_oracle: bool,
    /// Serving-model configuration, when a model is part of the
    /// deterministic response (serve pipeline); `None` for pure
    /// compile-and-verify consumers (datagen, lint).
    pub model: Option<ModelFingerprint>,
}

impl EngineFingerprint {
    /// A fingerprint for `backend` under `budget`, at the compiled-in
    /// analyzer version, with the static gate on and no model.
    pub fn new(backend: SimBackend, budget: SimBudget) -> EngineFingerprint {
        EngineFingerprint {
            backend,
            budget,
            analyzer_version: ANALYZER_VERSION,
            netlist_pass_version: NETLIST_PASS_VERSION,
            passes: PassConfig::full(),
            static_gate: true,
            formal_oracle: false,
            model: None,
        }
    }

    /// Sets the netlist pass configuration.
    pub fn with_passes(mut self, passes: PassConfig) -> EngineFingerprint {
        self.passes = passes;
        self
    }

    /// Sets the static-gate switch.
    pub fn with_static_gate(mut self, on: bool) -> EngineFingerprint {
        self.static_gate = on;
        self
    }

    /// Sets the formal-oracle switch.
    pub fn with_formal_oracle(mut self, on: bool) -> EngineFingerprint {
        self.formal_oracle = on;
        self
    }

    /// Attaches a serving-model configuration.
    pub fn with_model(mut self, name: &str, temperature: f64) -> EngineFingerprint {
        self.model = Some(ModelFingerprint {
            name: name.to_string(),
            temperature_bits: temperature.to_bits(),
        });
        self
    }

    /// The stable 64-bit key of this configuration. Field order and
    /// framing are fixed; a change here invalidates every persisted key
    /// in the workspace, exactly like changing [`haven_hash`] itself.
    pub fn key(&self) -> u64 {
        let h = haven_hash::ContentHasher::new()
            .word(match self.backend {
                SimBackend::Interpreter => 0,
                SimBackend::Compiled => 1,
            })
            .word(self.budget.max_settle_per_step as u64)
            .word(self.budget.max_loop_iterations as u64)
            .word(self.budget.max_ticks as u64)
            .word(self.budget.max_total_work as u64)
            .word(u64::from(self.analyzer_version))
            .word(u64::from(self.netlist_pass_version))
            .word(self.passes.mask())
            .word(u64::from(self.static_gate))
            .word(u64::from(self.formal_oracle));
        match &self.model {
            None => h.word(0).finish(),
            Some(m) => h.word(1).part(&m.name).word(m.temperature_bits).finish(),
        }
    }

    /// Lower-case hex rendering of [`key`](Self::key), for logs and
    /// machine-readable reports (`haven-lint`'s `engine` section).
    pub fn hex(&self) -> String {
        haven_hash::hex16(self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EngineFingerprint {
        EngineFingerprint::new(SimBackend::Compiled, SimBudget::default())
    }

    #[test]
    fn identical_configurations_share_a_key() {
        assert_eq!(base().key(), base().key());
        let with_model = base().with_model("m", 0.2);
        assert_eq!(with_model.key(), base().with_model("m", 0.2).key());
    }

    #[test]
    fn every_field_is_key_relevant() {
        let k = base().key();
        assert_ne!(
            k,
            EngineFingerprint::new(SimBackend::Interpreter, SimBudget::default()).key()
        );
        assert_ne!(
            k,
            EngineFingerprint::new(SimBackend::Compiled, SimBudget::starved()).key()
        );
        assert_ne!(k, base().with_static_gate(false).key());
        assert_ne!(k, base().with_formal_oracle(true).key());
        assert_ne!(k, base().with_model("m", 0.2).key());
        let bumped = EngineFingerprint {
            analyzer_version: ANALYZER_VERSION + 1,
            ..base()
        };
        assert_ne!(k, bumped.key(), "analyzer version must invalidate keys");
        assert_ne!(k, base().with_passes(PassConfig::none()).key());
        let repiped = EngineFingerprint {
            netlist_pass_version: NETLIST_PASS_VERSION + 1,
            ..base()
        };
        assert_ne!(
            k,
            repiped.key(),
            "pass-pipeline version must invalidate keys"
        );
    }

    #[test]
    fn every_pass_toggle_is_key_relevant() {
        // Each of the four pass switches occupies its own bit in the
        // hashed mask, so any single toggle re-keys the configuration.
        let full = base().key();
        for i in 0..4 {
            let mut p = PassConfig::full();
            match i {
                0 => p.normalize = false,
                1 => p.constfold = false,
                2 => p.lower = false,
                _ => p.rebalance = false,
            }
            assert_ne!(full, base().with_passes(p).key(), "toggle {i}");
        }
    }

    #[test]
    fn model_name_and_temperature_both_matter() {
        let m = base().with_model("codeqwen", 0.2);
        assert_ne!(m.key(), base().with_model("codeqwen", 0.5).key());
        assert_ne!(m.key(), base().with_model("deepseek", 0.2).key());
    }

    #[test]
    fn budget_fields_are_framed_unambiguously() {
        // Swapping two budget fields must change the key: each field has
        // a fixed position in the hash, not a shared bucket.
        let a = EngineFingerprint::new(
            SimBackend::Compiled,
            SimBudget {
                max_settle_per_step: 7,
                max_loop_iterations: 9,
                ..SimBudget::default()
            },
        );
        let b = EngineFingerprint::new(
            SimBackend::Compiled,
            SimBudget {
                max_settle_per_step: 9,
                max_loop_iterations: 7,
                ..SimBudget::default()
            },
        );
        assert_ne!(a.key(), b.key());
    }
}
