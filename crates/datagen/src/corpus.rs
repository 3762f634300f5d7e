//! The synthetic "GitHub corpus" (Fig. 2 step 5 input).
//!
//! The paper scrapes ≈550k Verilog samples from public repositories. We
//! synthesize a corpus with the properties that matter downstream:
//! heterogeneous topics, mixed attribute conventions, mixed code quality
//! (clean / unconventional / outright broken), and a sprinkle of
//! non-Verilog noise files — at a configurable scale (default 1:100).

use haven_hash::rng::StdRng;
use haven_spec::codegen::{emit, EmitStyle};
use haven_spec::ir::*;
use haven_spec::{builders, Spec};
use haven_verilog::analyze::ResetKind;
use haven_verilog::ast::{BinaryOp, Edge};

use crate::par;

/// Quality class of a corpus file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quality {
    /// Convention-clean code.
    Clean,
    /// Compiles, but violates conventions (blocking in seq, no default…).
    Unconventional,
    /// Does not compile (half-finished or non-Verilog content).
    Broken,
}

/// One scraped "file".
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSample {
    /// Stable sample id.
    pub id: usize,
    /// File contents.
    pub source: String,
    /// Quality class it was synthesized as (hidden from the pipeline;
    /// used only to validate pipeline filtering in tests).
    pub quality: Quality,
    /// The underlying intent, when the file was generated from one.
    /// Hidden from the pipeline; the captioner uses it the way GPT-3.5
    /// "reads" code.
    pub spec: Option<Spec>,
}

/// Corpus generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Number of files to synthesize (paper: ≈550k; default 1:100 scale).
    pub size: usize,
    /// Fraction of broken files.
    pub broken_rate: f64,
    /// Fraction of unconventional (but compiling) files.
    pub unconventional_rate: f64,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            size: 5500,
            broken_rate: 0.22,
            unconventional_rate: 0.30,
        }
    }
}

/// Synthesizes the corpus. Deterministic in `seed`.
///
/// The seeded stream is drawn sequentially, one sample after another;
/// the drawn samples are then rendered to source text on every core.
pub fn generate(cfg: &CorpusConfig, seed: u64) -> Vec<CorpusSample> {
    generate_on(cfg, seed, par::workers())
}

/// [`generate`] with the rendering on `workers` threads.
fn generate_on(cfg: &CorpusConfig, seed: u64, workers: usize) -> Vec<CorpusSample> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_7270);
    let (mut corpus, recipes): (Vec<CorpusSample>, Vec<Recipe>) =
        (0..cfg.size).map(|id| draw(id, cfg, &mut rng)).unzip();
    let sources = par::par_map(&corpus, workers, |sample| {
        let spec = sample
            .spec
            .as_ref()
            .expect("drawn samples carry their spec");
        recipes[sample.id].render(spec)
    });
    for (sample, source) in corpus.iter_mut().zip(sources) {
        sample.source = source;
    }
    corpus
}

/// How a drawn sample's source text is rendered from its spec.
enum Recipe {
    /// A structural adder of this width (see [`hierarchical_adder_source`]).
    Hierarchical(usize),
    /// The correct emission, broken by edit `0..4` (see [`broken_source`]).
    Broken(u8),
    /// The spec emitted in this style.
    Emit(EmitStyle),
}

impl Recipe {
    fn render(&self, spec: &Spec) -> String {
        match self {
            Recipe::Hierarchical(width) => hierarchical_adder_source(&spec.name, *width),
            Recipe::Broken(edit) => broken_source(spec, *edit),
            Recipe::Emit(style) => emit(spec, style),
        }
    }
}

/// Draws one sample from the seeded stream: everything but its source
/// text, which the returned recipe renders.
fn draw(id: usize, cfg: &CorpusConfig, rng: &mut StdRng) -> (CorpusSample, Recipe) {
    // A slice of real repositories is hierarchical: structural adders
    // built from full-adder submodules. These exercise instance
    // flattening through the captioning/verification path.
    let (spec, quality, recipe) = if rng.gen_bool(0.06) {
        let width = rng.gen_range(2..=6usize);
        let spec = haven_spec::builders::adder(&format!("gh_{id:05}"), width);
        (spec, Quality::Clean, Recipe::Hierarchical(width))
    } else {
        let spec = random_spec(rng, id);
        let roll: f64 = rng.gen();
        if roll < cfg.broken_rate {
            (spec, Quality::Broken, Recipe::Broken(rng.gen_range(0..4u8)))
        } else if roll < cfg.broken_rate + cfg.unconventional_rate {
            let style = unconventional_style(rng);
            (spec, Quality::Unconventional, Recipe::Emit(style))
        } else {
            (spec, Quality::Clean, Recipe::Emit(EmitStyle::correct()))
        }
    };
    let sample = CorpusSample {
        id,
        source: String::new(),
        quality,
        spec: Some(spec),
    };
    (sample, recipe)
}

fn random_spec(rng: &mut StdRng, id: usize) -> Spec {
    let name = format!("gh_{id:05}");
    let mut spec = match rng.gen_range(0..10u8) {
        0 => builders::counter(&name, rng.gen_range(2..=8usize), None),
        1 => {
            let w = rng.gen_range(3..=6usize);
            builders::counter(&name, w, Some(rng.gen_range(3..1u64 << w)))
        }
        2 => builders::shift_register(
            &name,
            rng.gen_range(2..=16usize),
            if rng.gen_bool(0.5) {
                ShiftDirection::Left
            } else {
                ShiftDirection::Right
            },
        ),
        3 => builders::clock_divider(&name, rng.gen_range(2..=8u64)),
        4 => builders::pipeline(&name, rng.gen_range(1..=16usize), rng.gen_range(1..=3usize)),
        5 => builders::fsm_ab(&name),
        6 => {
            let all = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::NotA,
            ];
            let n = rng.gen_range(2..=all.len());
            builders::alu(&name, rng.gen_range(4..=16usize), all[..n].to_vec())
        }
        7 => builders::adder(&name, rng.gen_range(2..=16usize)),
        8 => builders::mux2(&name, rng.gen_range(1..=8usize)),
        _ => builders::gate(
            &name,
            [BinaryOp::BitAnd, BinaryOp::BitOr, BinaryOp::BitXor][rng.gen_range(0..3)],
        ),
    };
    if spec.behavior.is_sequential() {
        spec.attrs.reset = match rng.gen_range(0..4u8) {
            0 => Some(ResetSpec {
                name: "rst_n".into(),
                kind: ResetKind::AsyncActiveLow,
            }),
            1 => Some(ResetSpec {
                name: "rst".into(),
                kind: ResetKind::AsyncActiveHigh,
            }),
            2 => Some(ResetSpec {
                name: "rst".into(),
                kind: ResetKind::Sync,
            }),
            _ => Some(ResetSpec {
                name: "rst_n".into(),
                kind: ResetKind::AsyncActiveLow,
            }),
        };
        if rng.gen_bool(0.2) {
            spec.attrs.edge = Edge::Neg;
        }
        if rng.gen_bool(0.3) {
            spec.attrs.enable = Some(EnableSpec {
                name: "en".into(),
                active_high: rng.gen_bool(0.8),
            });
        }
    }
    spec
}

fn unconventional_style(rng: &mut StdRng) -> EmitStyle {
    let mut style = EmitStyle::correct();
    match rng.gen_range(0..4u8) {
        0 => style.nonblocking_in_seq = false,
        1 => style.case_default = false,
        2 => style.comb_always_block = true,
        // Scraped repos also contain registers with no reset at all —
        // code that compiles but powers up to `x` (step 8's static
        // verification rejects these).
        _ => style.ignore_reset = true,
    }
    style
}

/// A ripple-carry adder built structurally from full-adder instances.
fn hierarchical_adder_source(name: &str, width: usize) -> String {
    let mut body = String::new();
    if width > 1 {
        let carries: Vec<String> = (0..width - 1).map(|i| format!("c{i}")).collect();
        body.push_str(&format!(
            "    wire {};
",
            carries.join(", ")
        ));
    }
    for i in 0..width {
        let cin = if i == 0 {
            "1'b0".to_string()
        } else {
            format!("c{}", i - 1)
        };
        let cout = if i == width - 1 {
            ".cout()".to_string()
        } else {
            format!(".cout(c{i})")
        };
        body.push_str(&format!(
            "    fa_{name} u{i} (.a(a[{i}]), .b(b[{i}]), .cin({cin}), .sum(s[{i}]), {cout});
"
        ));
    }
    format!(
        "module {name} (
    input [{w}:0] a,
    input [{w}:0] b,
    output [{w}:0] s
);
{body}endmodule
module fa_{name} (
    input a,
    input b,
    input cin,
    output sum,
    output cout
);
    assign sum = a ^ b ^ cin;
    assign cout = (a & b) | (a & cin) | (b & cin);
endmodule
",
        w = width - 1
    )
}

fn broken_source(spec: &Spec, edit: u8) -> String {
    let good = emit(spec, &EmitStyle::correct());
    match edit {
        0 => good.replacen("endmodule", "", 1),
        1 => match good.match_indices(';').nth(1) {
            Some((i, _)) => {
                let mut s = good;
                s.remove(i);
                s
            }
            None => good,
        },
        2 => format!(
            "# {}\nThis repo contains my homework solutions.\n",
            spec.name
        ),
        _ => good.replacen("module", "modul", 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haven_verilog::elab::compile;

    /// `content_key` over every sample's id, source and quality.
    fn corpus_key(corpus: &[CorpusSample]) -> u64 {
        let parts: Vec<String> = corpus
            .iter()
            .flat_map(|s| {
                [
                    s.id.to_string(),
                    s.source.clone(),
                    format!("{:?}", s.quality),
                ]
            })
            .collect();
        let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
        haven_hash::content_key(&parts)
    }

    #[test]
    fn the_seeded_stream_is_pinned_and_worker_independent() {
        let cfg = CorpusConfig::default();
        let pinned = [
            (
                crate::flow::FlowConfig::default().seed,
                0xc11a_3bb6_8a14_e20b,
            ),
            (1, 0x80db_befa_f0a5_08d2),
        ];
        for (seed, key) in pinned {
            let corpus = generate(&cfg, seed);
            assert_eq!(corpus_key(&corpus), key, "seed {seed}");
            assert_eq!(corpus, generate_on(&cfg, seed, 1), "seed {seed}");
        }
    }

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let cfg = CorpusConfig {
            size: 300,
            ..CorpusConfig::default()
        };
        let a = generate(&cfg, 5);
        let b = generate(&cfg, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
    }

    #[test]
    fn quality_labels_match_compilability() {
        let cfg = CorpusConfig {
            size: 400,
            ..CorpusConfig::default()
        };
        for s in generate(&cfg, 9) {
            let compiles = compile(&s.source).is_ok();
            match s.quality {
                Quality::Broken => assert!(!compiles, "sample {} should be broken", s.id),
                _ => assert!(compiles, "sample {} should compile:\n{}", s.id, s.source),
            }
        }
    }

    #[test]
    fn quality_mix_roughly_matches_config() {
        let cfg = CorpusConfig {
            size: 2000,
            broken_rate: 0.25,
            unconventional_rate: 0.25,
        };
        let corpus = generate(&cfg, 11);
        let broken = corpus
            .iter()
            .filter(|s| s.quality == Quality::Broken)
            .count() as f64;
        let frac = broken / corpus.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "broken fraction {frac}");
    }

    #[test]
    fn hierarchical_samples_exist_compile_and_are_correct() {
        use haven_spec::cosim::cosimulate;
        use haven_spec::stimuli::stimuli_for;
        let cfg = CorpusConfig {
            size: 400,
            ..CorpusConfig::default()
        };
        let corpus = generate(&cfg, 21);
        let hier: Vec<&CorpusSample> = corpus
            .iter()
            .filter(|s| s.source.matches("module ").count() > 1)
            .collect();
        assert!(!hier.is_empty(), "no hierarchical samples generated");
        for s in hier.iter().take(5) {
            compile(&s.source).unwrap_or_else(|e| {
                panic!(
                    "{e}
{}",
                    s.source
                )
            });
            // The structural adder must actually add.
            let spec = s.spec.as_ref().unwrap();
            let report = cosimulate(spec, &s.source, &stimuli_for(spec, 1));
            assert!(
                report.verdict.functional_ok(),
                "{:?}
{}",
                report.verdict,
                s.source
            );
        }
    }

    #[test]
    fn topics_are_heterogeneous() {
        let cfg = CorpusConfig {
            size: 500,
            ..CorpusConfig::default()
        };
        let corpus = generate(&cfg, 3);
        let mut topics = std::collections::HashSet::new();
        for s in corpus.iter().filter_map(|s| s.spec.as_ref()) {
            topics.insert(s.behavior.topic());
        }
        assert!(topics.len() >= 6, "only {topics:?}");
    }
}
