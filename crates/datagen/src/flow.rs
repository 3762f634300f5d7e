//! The end-to-end generation flow of Fig. 2, producing the vanilla,
//! K- and L-datasets with funnel statistics.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use haven_engine::{Engine, EngineOptions, FormalOracle, SimBackend};
use haven_formal::{EquivOptions, EquivVerdict};
use haven_spec::Spec;

use crate::augment::{
    caption, match_exemplars, rewrite, rewrite_accepted, verify_pair, VerifyStats, SETTLE_BUDGET,
};
use crate::corpus::{self, CorpusConfig, CorpusSample};
use crate::evolve::evolve_pairs;
use crate::exemplars;
use crate::logic::{self, LogicConfig};
use crate::pairs::Dataset;
use crate::pairs::InstructionCodePair;

/// Flow parameters. Defaults reproduce the paper's 550k → 43k → 14k/5k
/// funnel at 1:100 scale.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Corpus synthesis parameters.
    pub corpus: CorpusConfig,
    /// L-dataset parameters.
    pub logic: LogicConfig,
    /// Master seed.
    pub seed: u64,
    /// Extend step 8 with the formal equivalence oracle: admitted pairs
    /// whose originating corpus sample carries a spec are checked
    /// against the spec's correct emission, and pairs refuted by a
    /// replay-confirmed counterexample are dropped — functional
    /// hallucinations that compile, pass static analysis and settle
    /// cleanly. Off by default (the paper's funnel has no such gate).
    pub formal_verify: bool,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            corpus: CorpusConfig::default(),
            logic: LogicConfig {
                n_minimization: 20,
                n_chains: 15,
                n_chains_instructional: 15,
            },
            seed: 20_250_704,
            formal_verify: false,
        }
    }
}

impl FlowConfig {
    /// A small configuration for tests and examples.
    pub fn small(seed: u64) -> FlowConfig {
        FlowConfig {
            corpus: CorpusConfig {
                size: 400,
                ..CorpusConfig::default()
            },
            logic: LogicConfig {
                n_minimization: 8,
                n_chains: 6,
                n_chains_instructional: 6,
            },
            seed,
            formal_verify: false,
        }
    }
}

/// Funnel statistics of one flow run (the numbers §III-D reports at
/// full scale: ≈43k valid vanilla, ≈14k K, ≈5k L).
///
/// Equality compares the funnel *counts* only: the wall-time fields vary
/// run to run and are excluded so determinism checks
/// (`run(cfg) == run(cfg)`) compare what the flow decided, not how long
/// it took to decide it.
#[derive(Debug, Clone, Copy)]
pub struct FlowStats {
    /// Corpus files synthesized.
    pub corpus_files: usize,
    /// Files the captioner could parse and caption.
    pub captioned: usize,
    /// Vanilla pairs surviving compile + static verification.
    pub vanilla_valid: usize,
    /// Vanilla-side pairs rejected by the static analyzer (compiled, but
    /// carried an Error-severity dataflow finding).
    pub vanilla_rejected_static: usize,
    /// Vanilla-side pairs rejected by the budgeted settle probe (ran away
    /// at time zero instead of settling).
    pub vanilla_rejected_budget: usize,
    /// Vanilla pairs that matched at least one exemplar.
    pub matched: usize,
    /// K-dataset pairs after rewriting + verification.
    pub k_pairs: usize,
    /// K-side rewrites rejected by the static analyzer.
    pub k_rejected_static: usize,
    /// K-side rewrites rejected by the budgeted settle probe.
    pub k_rejected_budget: usize,
    /// L-dataset pairs.
    pub l_pairs: usize,
    /// Formal equivalence queries run by the opt-in step-8 formal gate
    /// (zero when [`FlowConfig::formal_verify`] is off).
    pub formal_checked: usize,
    /// Vanilla pairs dropped by a replay-confirmed formal
    /// counterexample — functional hallucinations the settle probe and
    /// static analyzer both missed.
    pub vanilla_rejected_formal: usize,
    /// K-side pairs dropped the same way.
    pub k_rejected_formal: usize,
    /// Formal queries left undecided (taint, SAT budget, unsupported);
    /// the pair is kept — `Unknown` never silently rejects.
    pub formal_unknown: usize,
    /// Wall-time of the step-8 verification gate, in microseconds: one
    /// prepare (compile + static analysis + bytecode) plus the
    /// compiled-backend settle probe per captioned sample, summed. K-side
    /// rewrites inherit their sample's verdict, so this covers both
    /// sides. Excluded from equality.
    pub vanilla_verify_micros: u64,
    /// Always 0: the K side has no step-8 run of its own, since each
    /// rewrite keeps its sample's code and verdict (see
    /// `vanilla_verify_micros`). The field stays so that code building
    /// `FlowStats` literally keeps compiling. Excluded from equality.
    pub k_verify_micros: u64,
    /// Wall-time of the formal gate across both sides, in microseconds.
    /// Excluded from equality.
    pub formal_verify_micros: u64,
}

impl PartialEq for FlowStats {
    fn eq(&self, other: &FlowStats) -> bool {
        (
            self.corpus_files,
            self.captioned,
            self.vanilla_valid,
            self.vanilla_rejected_static,
            self.vanilla_rejected_budget,
            self.matched,
            self.k_pairs,
            self.k_rejected_static,
            self.k_rejected_budget,
            self.l_pairs,
        ) == (
            other.corpus_files,
            other.captioned,
            other.vanilla_valid,
            other.vanilla_rejected_static,
            other.vanilla_rejected_budget,
            other.matched,
            other.k_pairs,
            other.k_rejected_static,
            other.k_rejected_budget,
            other.l_pairs,
        ) && (
            self.formal_checked,
            self.vanilla_rejected_formal,
            self.k_rejected_formal,
            self.formal_unknown,
        ) == (
            other.formal_checked,
            other.vanilla_rejected_formal,
            other.k_rejected_formal,
            other.formal_unknown,
        )
    }
}

impl Eq for FlowStats {}

/// The flow's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutput {
    /// Compile-verified vanilla dataset (fine-tunes the `Vanilla` ablation).
    pub vanilla: Dataset,
    /// Knowledge-enhanced dataset.
    pub k_dataset: Dataset,
    /// Logic-enhanced dataset.
    pub l_dataset: Dataset,
    /// Funnel statistics.
    pub stats: FlowStats,
}

impl FlowOutput {
    /// The shuffled K+L combination used to fine-tune HaVen models.
    pub fn kl_dataset(&self, seed: u64) -> Dataset {
        Dataset::combine_shuffled(&[&self.k_dataset, &self.l_dataset], seed)
    }
}

/// Runs the whole Fig. 2 flow.
pub fn run(cfg: &FlowConfig) -> FlowOutput {
    // Step 8 prepares each captioned sample exactly once, so an artifact
    // cache would only ever miss and evict.
    let engine = Engine::uncached(SimBackend::Compiled, SETTLE_BUDGET);
    run_on(cfg, corpus::generate(&cfg.corpus, cfg.seed), &engine).0
}

/// Runs the flow from step 5 on over a given corpus, with step 8 on
/// `engine`. Also returns step 8's vanilla- and K-side tallies.
fn run_on(
    cfg: &FlowConfig,
    corpus: Vec<CorpusSample>,
    engine: &Engine,
) -> (FlowOutput, [VerifyStats; 2]) {
    let library = exemplars::library();

    // Steps 5–8, one sample at a time: caption, verify, and — if the code
    // compiled — match and rewrite. A rewrite keeps its sample's code, so
    // it inherits the sample's step-8 verdict and tallies.
    let (mut vanilla_pairs, mut k_pairs) = (Vec::new(), Vec::new());
    let (mut vanilla_verify, mut k_verify) = (VerifyStats::default(), VerifyStats::default());
    let (mut n_captioned, mut matched) = (0usize, 0usize);
    let mut verify_time = Duration::ZERO;
    for sample in &corpus {
        let Some(pair) = caption(sample) else {
            continue;
        };
        n_captioned += 1;
        let t = Instant::now();
        let verdict = verify_pair(engine, &pair.code);
        verify_time += t.elapsed();
        vanilla_verify += verdict;
        if verdict.rejected_compile == 0 {
            let (_, hits) = match_exemplars(&pair, &library);
            matched += usize::from(!hits.is_empty());
            // "If a vanilla instruction is associated with multiple
            // exemplars, it is rewritten separately for each exemplar" —
            // capped at 2, and only pairs whose analysis recovered a
            // concrete attribute/topic match yield rewrites, keeping the
            // funnel near the paper's 43k → 14k ratio.
            for e in hits.into_iter().take(2) {
                if rewrite_accepted(sample.id, &e.id) {
                    if let Some(rw) = rewrite(&pair, e, sample) {
                        k_verify += verdict;
                        if verdict.admitted() {
                            k_pairs.push(rw);
                        }
                    }
                }
            }
        }
        if verdict.admitted() {
            vanilla_pairs.push(pair);
        }
    }

    // Opt-in formal rung of step 8: every admitted pair whose corpus
    // sample kept its generating spec is checked against the spec's
    // correct emission. Only replay-confirmed counterexamples reject.
    let mut formal_stats = FormalGateStats::default();
    let mut vanilla_rejected_formal = 0;
    if cfg.formal_verify {
        let engine = Engine::new(EngineOptions::default());
        let oracle = FormalOracle::new(EquivOptions::default());
        let spec_of: HashMap<&str, &Spec> = corpus
            .iter()
            .filter_map(|s| s.spec.as_ref().map(|spec| (s.source.as_str(), spec)))
            .collect();
        let stats = &mut formal_stats;
        vanilla_pairs = formal_gate(vanilla_pairs, &spec_of, &engine, &oracle, stats);
        vanilla_rejected_formal = std::mem::take(&mut stats.rejected);
        k_pairs = formal_gate(k_pairs, &spec_of, &engine, &oracle, stats);
    }
    evolve_pairs(&mut k_pairs, cfg.seed ^ 0x6b);

    // Steps 9–12 (logic side).
    let mut l_pairs = logic::generate(&cfg.logic, cfg.seed);
    evolve_pairs(&mut l_pairs, cfg.seed ^ 0x6c);

    let stats = FlowStats {
        corpus_files: corpus.len(),
        captioned: n_captioned,
        vanilla_valid: vanilla_pairs.len(),
        vanilla_rejected_static: vanilla_verify.rejected_static,
        vanilla_rejected_budget: vanilla_verify.rejected_budget,
        matched,
        k_pairs: k_pairs.len(),
        k_rejected_static: k_verify.rejected_static,
        k_rejected_budget: k_verify.rejected_budget,
        l_pairs: l_pairs.len(),
        formal_checked: formal_stats.checked,
        vanilla_rejected_formal,
        k_rejected_formal: formal_stats.rejected,
        formal_unknown: formal_stats.unknown,
        vanilla_verify_micros: verify_time.as_micros() as u64,
        k_verify_micros: 0,
        formal_verify_micros: formal_stats.micros,
    };
    let output = FlowOutput {
        vanilla: Dataset {
            pairs: vanilla_pairs,
        },
        k_dataset: Dataset { pairs: k_pairs },
        l_dataset: Dataset { pairs: l_pairs },
        stats,
    };
    (output, [vanilla_verify, k_verify])
}

/// Running tallies of the opt-in formal rung.
#[derive(Default)]
struct FormalGateStats {
    checked: usize,
    rejected: usize,
    unknown: usize,
    micros: u64,
}

/// Drops pairs refuted by a replay-confirmed formal counterexample
/// against their originating spec's correct emission. Pairs with no
/// spec on file and undecided queries pass through — the gate only ever
/// acts on a concrete, replayed mismatch.
fn formal_gate(
    pairs: Vec<InstructionCodePair>,
    spec_of: &HashMap<&str, &Spec>,
    engine: &Engine,
    oracle: &FormalOracle,
    stats: &mut FormalGateStats,
) -> Vec<InstructionCodePair> {
    let start = std::time::Instant::now();
    let kept = pairs
        .into_iter()
        .filter(|p| {
            let Some(spec) = spec_of.get(p.code.as_str()) else {
                return true;
            };
            stats.checked += 1;
            match haven_spec::formal::formal_check(engine, oracle, spec, &p.code) {
                Some(outcome) => match &outcome.report.verdict {
                    EquivVerdict::Counterexample(_) => {
                        stats.rejected += 1;
                        false
                    }
                    EquivVerdict::Equivalent => true,
                    EquivVerdict::Unknown(_) => {
                        stats.unknown += 1;
                        true
                    }
                },
                // The golden emission failed to prepare: a harness-side
                // surprise, counted as undecided, never a rejection.
                None => {
                    stats.unknown += 1;
                    true
                }
            }
        })
        .collect();
    stats.micros += start.elapsed().as_micros() as u64;
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::verify_counted;
    use haven_lm::finetune::SampleKind;

    fn step8_engine() -> Engine {
        Engine::uncached(SimBackend::Compiled, SETTLE_BUDGET)
    }

    /// [`super::run_on`] on a fresh step-8 engine, without the tallies.
    fn run_on(cfg: &FlowConfig, corpus: Vec<CorpusSample>) -> FlowOutput {
        super::run_on(cfg, corpus, &step8_engine()).0
    }

    /// The flow as it ran before it went sample-major, rebuilt from
    /// public calls: caption and verify every sample, then re-walk the
    /// corpus to caption, compile, match and rewrite, and verify the
    /// rewrites as a second batch. Returns the output and each side's
    /// step-8 tallies.
    fn two_pass(cfg: &FlowConfig, corpus: &[CorpusSample]) -> (FlowOutput, [VerifyStats; 2]) {
        let library = exemplars::library();
        let captioned: Vec<_> = corpus.iter().filter_map(caption).collect();
        let n_captioned = captioned.len();
        let (mut vanilla_pairs, vanilla_verify) = verify_counted(captioned);
        let mut k_raw = Vec::new();
        let mut matched = 0;
        for sample in corpus {
            let Some(pair) = caption(sample) else {
                continue;
            };
            if haven_verilog::elab::compile(&pair.code).is_err() {
                continue;
            }
            let (_, hits) = match_exemplars(&pair, &library);
            matched += usize::from(!hits.is_empty());
            for e in hits.into_iter().take(2) {
                if rewrite_accepted(sample.id, &e.id) {
                    k_raw.extend(rewrite(&pair, e, sample));
                }
            }
        }
        let (mut k_pairs, k_verify) = verify_counted(k_raw);
        let mut formal_stats = FormalGateStats::default();
        let mut vanilla_rejected_formal = 0;
        if cfg.formal_verify {
            let engine = Engine::new(EngineOptions::default());
            let oracle = FormalOracle::new(EquivOptions::default());
            let spec_of: HashMap<&str, &Spec> = corpus
                .iter()
                .filter_map(|s| s.spec.as_ref().map(|spec| (s.source.as_str(), spec)))
                .collect();
            let stats = &mut formal_stats;
            vanilla_pairs = formal_gate(vanilla_pairs, &spec_of, &engine, &oracle, stats);
            vanilla_rejected_formal = std::mem::take(&mut stats.rejected);
            k_pairs = formal_gate(k_pairs, &spec_of, &engine, &oracle, stats);
        }
        evolve_pairs(&mut k_pairs, cfg.seed ^ 0x6b);
        let mut l_pairs = logic::generate(&cfg.logic, cfg.seed);
        evolve_pairs(&mut l_pairs, cfg.seed ^ 0x6c);
        let stats = FlowStats {
            corpus_files: corpus.len(),
            captioned: n_captioned,
            vanilla_valid: vanilla_pairs.len(),
            vanilla_rejected_static: vanilla_verify.rejected_static,
            vanilla_rejected_budget: vanilla_verify.rejected_budget,
            matched,
            k_pairs: k_pairs.len(),
            k_rejected_static: k_verify.rejected_static,
            k_rejected_budget: k_verify.rejected_budget,
            l_pairs: l_pairs.len(),
            formal_checked: formal_stats.checked,
            vanilla_rejected_formal,
            k_rejected_formal: formal_stats.rejected,
            formal_unknown: formal_stats.unknown,
            vanilla_verify_micros: 0,
            k_verify_micros: 0,
            formal_verify_micros: 0,
        };
        let output = FlowOutput {
            vanilla: Dataset {
                pairs: vanilla_pairs,
            },
            k_dataset: Dataset { pairs: k_pairs },
            l_dataset: Dataset { pairs: l_pairs },
            stats,
        };
        (output, [vanilla_verify, k_verify])
    }

    #[test]
    fn single_pass_matches_the_two_pass_reference() {
        let mut corpora: Vec<_> = (1..=4)
            .map(|seed| {
                let cfg = FlowConfig::small(seed);
                let corpus = corpus::generate(&cfg.corpus, cfg.seed);
                (cfg, corpus)
            })
            .collect();
        let base = FlowConfig::small(1);
        corpora.push((base.clone(), corpus_with_defects(&base)));
        for (cfg, corpus) in corpora {
            for formal_verify in [false, true] {
                let cfg = FlowConfig {
                    formal_verify,
                    ..cfg.clone()
                };
                let (out, tallies) = super::run_on(&cfg, corpus.clone(), &step8_engine());
                let (reference, reference_tallies) = two_pass(&cfg, &corpus);
                assert_eq!(out, reference, "seed {} formal {formal_verify}", cfg.seed);
                // All twelve counters, probe and warning tallies included:
                // each rewrite's inherited verdict adds up to what a
                // second verification of the K batch counts.
                assert_eq!(tallies, reference_tallies, "seed {}", cfg.seed);
                let k = tallies[1];
                assert!(k.batched_probes > 0 && k.scalar_probes > 0, "{k:?}");
            }
        }
    }

    #[test]
    fn step_8_prepares_each_captioned_sample_once() {
        let cfg = FlowConfig::small(1);
        let engine = step8_engine();
        let (out, _) = super::run_on(&cfg, corpus_with_defects(&cfg), &engine);
        let s = out.stats;
        assert!(s.k_pairs + s.k_rejected_static > 0, "{s:?}");
        assert_eq!(engine.stats().misses, s.captioned as u64, "{s:?}");
    }

    #[test]
    fn flow_produces_funnel_shaped_outputs() {
        let out = run(&FlowConfig::small(1));
        let s = out.stats;
        assert!(s.captioned < s.corpus_files, "{s:?}");
        assert!(s.vanilla_valid <= s.captioned, "{s:?}");
        assert!(s.k_pairs > 0 && s.l_pairs > 0, "{s:?}");
        // K pairs are all Knowledge kind, verified, attribute-rich mostly.
        assert!(out
            .k_dataset
            .pairs
            .iter()
            .all(|p| p.kind == SampleKind::Knowledge));
        assert!(out
            .l_dataset
            .pairs
            .iter()
            .all(|p| p.kind == SampleKind::Logic));
    }

    /// The small corpus plus hand-written step-8 defects: a register
    /// driven from two always blocks, which the static gate rejects, and
    /// a pipeline written with blocking assignments in its clocked block,
    /// which compiles, passes the static gate and settles but collapses
    /// its stages, so only the formal rung rejects it. Each defect takes
    /// the first free id whose caption and exemplar rewrite are accepted,
    /// so it reaches both sides of step 8 whatever the corpus holds.
    fn corpus_with_defects(cfg: &FlowConfig) -> Vec<CorpusSample> {
        use haven_spec::builders::{pipeline, register};
        use haven_spec::codegen::{emit, EmitStyle};
        let multi_driven =
            "module defect_md (input clk, input rst_n, input [3:0] d, output reg [3:0] q);
    always @(posedge clk or negedge rst_n)
        if (!rst_n) q <= 4'd0;
        else q <= d;
    always @(posedge clk)
        q <= ~d;
endmodule
";
        let collapsed = pipeline("defect_pipe", 4, 3);
        let blocking = EmitStyle {
            nonblocking_in_seq: false,
            ..EmitStyle::correct()
        };
        let defects = [
            (multi_driven.to_string(), register("defect_md", 4)),
            (emit(&collapsed, &blocking), collapsed),
        ];
        let library = exemplars::library();
        let mut corpus = corpus::generate(&cfg.corpus, cfg.seed);
        let mut ids = corpus.len()..;
        for (source, spec) in defects {
            let sample = ids
                .by_ref()
                .map(|id| CorpusSample {
                    id,
                    source: source.clone(),
                    quality: corpus::Quality::Unconventional,
                    spec: Some(spec.clone()),
                })
                .find(|sample| {
                    caption(sample).is_some_and(|pair| {
                        let (_, hits) = match_exemplars(&pair, &library);
                        hits.iter()
                            .take(2)
                            .any(|e| crate::augment::rewrite_accepted(sample.id, &e.id))
                    })
                })
                .expect("some id admits the defect");
            corpus.push(sample);
        }
        corpus
    }

    #[test]
    fn static_verification_rejects_defective_pairs() {
        let cfg = FlowConfig::small(1);
        let out = run_on(&cfg, corpus_with_defects(&cfg));
        let s = out.stats;
        assert!(s.vanilla_rejected_static > 0, "{s:?}");
        assert!(s.k_rejected_static > 0, "{s:?}");
        // Nothing that survives step 8 carries an Error-severity finding.
        for p in out.vanilla.pairs.iter().chain(&out.k_dataset.pairs) {
            let d = haven_verilog::compile(&p.code).expect("verified pairs compile");
            assert!(
                !haven_verilog::analyze_design(&d).has_errors(),
                "{}",
                p.code
            );
        }
    }

    #[test]
    fn flow_is_deterministic() {
        assert_eq!(run(&FlowConfig::small(2)), run(&FlowConfig::small(2)));
    }

    #[test]
    fn formal_gate_drops_functional_hallucinations() {
        // Unconventional corpus styles include blocking assignments in
        // sequential blocks — code that compiles, passes the static
        // gate and settles at time zero, yet computes the wrong
        // function. Only the formal rung can reject those.
        let base = FlowConfig::small(1);
        let gated_cfg = FlowConfig {
            formal_verify: true,
            ..base.clone()
        };
        let corpus = corpus_with_defects(&base);
        let plain = run_on(&base, corpus.clone());
        let gated = run_on(&gated_cfg, corpus.clone());
        let s = gated.stats;
        assert!(s.formal_checked > 0, "{s:?}");
        assert!(
            s.vanilla_rejected_formal + s.k_rejected_formal > 0,
            "expected at least one formally-refuted admitted pair: {s:?}"
        );
        assert_eq!(
            s.vanilla_valid + s.vanilla_rejected_formal,
            plain.stats.vanilla_valid,
            "the formal gate must only ever subtract"
        );
        // Off by default: the plain run never consulted the oracle.
        assert_eq!(plain.stats.formal_checked, 0);
        // The gate is deterministic like everything else in the flow.
        assert_eq!(gated, run_on(&gated_cfg, corpus));
    }

    #[test]
    fn kl_combination_contains_everything() {
        let out = run(&FlowConfig::small(3));
        let kl = out.kl_dataset(9);
        assert_eq!(kl.len(), out.k_dataset.len() + out.l_dataset.len());
    }

    #[test]
    fn all_emitted_pairs_compile() {
        let out = run(&FlowConfig::small(4));
        for p in out
            .vanilla
            .pairs
            .iter()
            .chain(&out.k_dataset.pairs)
            .chain(&out.l_dataset.pairs)
        {
            haven_verilog::elab::compile(&p.code).unwrap_or_else(|e| panic!("{e}\n{}", p.code));
        }
    }
}
