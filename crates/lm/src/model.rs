//! The simulated CodeGen-LLM.
//!
//! Generation pipeline:
//!
//! 1. [`perceive`] the prompt faithfully — once per prompt: every sample
//!    of that prompt shares the reading
//!    ([`CodeGenModel::generate_perceived`]);
//! 2. per sample, decide, channel by channel, whether this sample
//!    hallucinates there (Bernoulli draw against [`effective_success`],
//!    which mixes the model's skill, a per-task latent difficulty and the
//!    sampling temperature);
//! 3. apply the matching corruption operators to the generation plan;
//! 4. render the plan to Verilog.
//!
//! Everything is deterministic in `(model name, task id, sample index,
//! temperature)`.

use haven_modality::detect::ModalityKind;
use haven_modality::state_diagram::StateDiagram;

use crate::hallucinate::{self, GenPlan};
use crate::perception::{perceive, Exposure, Perception};
use crate::profiles::ModelProfile;
use crate::rng::rng_for;
use crate::skills::{effective_success, Channel};

/// How much easier a structured (SI-CoT interpreted) modality is to read
/// than a raw one: the failure probability is multiplied by this factor.
/// Calibrated per modality against Table V's HaVen row — SI-CoT nearly
/// solves truth tables, helps state diagrams substantially, but leaves
/// waveform tasks largely hard (paper: 60.0% / 52.4% / 30.8%).
fn structured_risk_factor(kind: ModalityKind) -> f64 {
    match kind {
        ModalityKind::TruthTable => 0.35,
        ModalityKind::Waveform => 0.80,
        ModalityKind::StateDiagram => 0.50,
    }
}

/// One channel decision made while generating a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelDecision {
    /// The channel.
    pub channel: Channel,
    /// Success probability used for the draw.
    pub p_success: f64,
    /// Whether the channel hallucinated on this sample.
    pub fired: bool,
}

/// Diagnostic record of one generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenTrace {
    /// Channel decisions in application order.
    pub decisions: Vec<ChannelDecision>,
    /// Whether the prompt was understood at all.
    pub perceived: bool,
}

impl GenTrace {
    /// Whether any channel hallucinated.
    pub fn any_fired(&self) -> bool {
        self.decisions.iter().any(|d| d.fired)
    }
}

/// A (simulated) code-generation language model.
#[derive(Debug, Clone)]
pub struct CodeGenModel {
    /// The model's identity and skills.
    pub profile: ModelProfile,
    /// Sampling temperature (the paper sweeps 0.2 / 0.5 / 0.8).
    pub temperature: f64,
}

impl CodeGenModel {
    /// Creates a model at the given temperature.
    pub fn new(profile: ModelProfile, temperature: f64) -> CodeGenModel {
        CodeGenModel {
            profile,
            temperature,
        }
    }

    /// Generates one completion for `prompt`.
    ///
    /// `task_id` identifies the benchmark task (it seeds the per-task
    /// difficulty draw); `sample` is the index within the task's `n`
    /// samples.
    pub fn generate(&self, prompt: &str, task_id: &str, sample: usize) -> String {
        self.generate_traced(prompt, task_id, sample).0
    }

    /// [`CodeGenModel::generate`] plus the channel decision trace.
    pub fn generate_traced(
        &self,
        prompt: &str,
        task_id: &str,
        sample: usize,
    ) -> (String, GenTrace) {
        self.generate_perceived(perceive(prompt).ok().as_ref(), task_id, sample)
    }

    /// Generates one sample from an already [`perceive`]d prompt, so a
    /// caller drawing many samples of one prompt reads it once. `None` (an
    /// unperceivable prompt) takes the fallback path with
    /// `perceived: false`.
    pub fn generate_perceived(
        &self,
        perception: Option<&Perception>,
        task_id: &str,
        sample: usize,
    ) -> (String, GenTrace) {
        let mut trace = GenTrace {
            decisions: Vec::new(),
            perceived: perception.is_some(),
        };
        let Some(perception) = perception else {
            return (self.fallback_completion(task_id, sample), trace);
        };
        let mut plan = GenPlan::faithful(perception.spec.clone());
        let sample_key = sample.to_string();

        let decide = |this: &CodeGenModel,
                      trace: &mut GenTrace,
                      channel: Channel,
                      skill: f64,
                      risk_factor: f64|
         -> bool {
            let p = 1.0
                - (1.0
                    - effective_success(
                        skill,
                        &this.profile.name,
                        task_id,
                        channel,
                        this.temperature,
                    ))
                    * risk_factor;
            let mut rng = rng_for(&[
                &this.profile.name,
                task_id,
                &sample_key,
                channel.key(),
                &format!("{:.2}", this.temperature),
            ]);
            let fired = rng.gen::<f64>() >= p;
            trace.decisions.push(ChannelDecision {
                channel,
                p_success: p,
                fired,
            });
            fired
        };

        // --- symbolic channels ------------------------------------------
        for exposure in &perception.exposures {
            let (kind, risk) = match exposure {
                Exposure::RawModality(k) => (*k, 1.0),
                Exposure::StructuredModality(k) => (*k, structured_risk_factor(*k)),
                _ => continue,
            };
            let channel = match kind {
                ModalityKind::TruthTable => Channel::SymbolTruthTable,
                ModalityKind::Waveform => Channel::SymbolWaveform,
                ModalityKind::StateDiagram => Channel::SymbolStateDiagram,
            };
            let skill = self.profile.skills.channel(channel);
            if decide(self, &mut trace, channel, skill, risk) {
                let mut rng = rng_for(&[
                    &self.profile.name,
                    task_id,
                    &sample_key,
                    "corrupt",
                    channel.key(),
                ]);
                match kind {
                    ModalityKind::TruthTable => {
                        hallucinate::corrupt_truth_table(&mut plan, &mut rng)
                    }
                    ModalityKind::Waveform => hallucinate::corrupt_waveform(&mut plan, &mut rng),
                    ModalityKind::StateDiagram => {
                        hallucinate::corrupt_state_diagram(&mut plan, &mut rng)
                    }
                }
            }
        }

        // --- logical channels ---------------------------------------------
        if perception.exposures.contains(&Exposure::WordChain) {
            let skill = self.profile.skills.channel(Channel::LogicExpression);
            if decide(self, &mut trace, Channel::LogicExpression, skill, 1.0) {
                let mut rng =
                    rng_for(&[&self.profile.name, task_id, &sample_key, "corrupt", "lgx"]);
                hallucinate::corrupt_expression(&mut plan, &mut rng);
            }
        }
        if perception.exposures.contains(&Exposure::IfChain) {
            let skill = self.profile.skills.channel(Channel::LogicInstruction);
            if decide(self, &mut trace, Channel::LogicInstruction, skill, 1.0) {
                let mut rng =
                    rng_for(&[&self.profile.name, task_id, &sample_key, "corrupt", "lgi"]);
                hallucinate::corrupt_instruction(&mut plan, &mut rng);
            }
        }
        if exercises_corner_cases(perception) {
            let skill = self.profile.skills.channel(Channel::LogicCornerCase);
            if decide(self, &mut trace, Channel::LogicCornerCase, skill, 1.0) {
                let mut rng =
                    rng_for(&[&self.profile.name, task_id, &sample_key, "corrupt", "lgc"]);
                hallucinate::corrupt_corner_case(&mut plan, &mut rng);
            }
        }

        // --- knowledge channels --------------------------------------------
        let topic = perception.spec.behavior.topic();
        let conv_skill = self.profile.skills.topic(topic);
        if decide(
            self,
            &mut trace,
            Channel::KnowledgeConvention,
            conv_skill,
            1.0,
        ) {
            let mut rng = rng_for(&[&self.profile.name, task_id, &sample_key, "corrupt", "knc"]);
            hallucinate::corrupt_convention(&mut plan, topic, &mut rng);
        }
        if perception.spec.behavior.is_sequential() {
            let skill = self.profile.skills.channel(Channel::KnowledgeAttributes);
            if decide(self, &mut trace, Channel::KnowledgeAttributes, skill, 1.0) {
                let mut rng =
                    rng_for(&[&self.profile.name, task_id, &sample_key, "corrupt", "kna"]);
                hallucinate::corrupt_attributes(&mut plan, &mut rng);
            }
        }

        // --- interface discipline -------------------------------------------
        if perception.exposures.contains(&Exposure::HeaderGiven) {
            let skill = self.profile.skills.channel(Channel::Interface);
            if decide(self, &mut trace, Channel::Interface, skill, 1.0) {
                let mut rng =
                    rng_for(&[&self.profile.name, task_id, &sample_key, "corrupt", "ifc"]);
                hallucinate::corrupt_interface(&mut plan, &mut rng);
            }
        }

        // --- syntax -----------------------------------------------------------
        let skill = self.profile.skills.channel(Channel::KnowledgeSyntax);
        if decide(self, &mut trace, Channel::KnowledgeSyntax, skill, 1.0) {
            let mut rng = rng_for(&[&self.profile.name, task_id, &sample_key, "corrupt", "kns"]);
            plan.sabotage = Some(hallucinate::pick_sabotage(&mut rng));
        }

        (crate::generate::render(&plan), trace)
    }

    /// When the prompt cannot be understood, real models still emit
    /// *something*; ours emits a syntactically valid stub that will fail
    /// functionally (or an outright broken snippet at low syntax skill).
    fn fallback_completion(&self, task_id: &str, sample: usize) -> String {
        let mut rng = rng_for(&[&self.profile.name, task_id, &sample.to_string(), "fallback"]);
        if rng.gen::<f64>() > self.profile.skills.channel(Channel::KnowledgeSyntax) {
            "def module():\n    pass\n".to_string()
        } else {
            "module top_module (\n    input a,\n    output y\n);\n    assign y = a;\nendmodule\n"
                .to_string()
        }
    }

    /// The *CoT prompting model* role (Fig. 1): interprets a state diagram
    /// into the structured NL of Table III. Interpretation through
    /// structured CoT succeeds far more often than inline reading, but is
    /// still fallible — failures propagate a corrupted interpretation.
    pub fn interpret_state_diagram(&self, diagram: &StateDiagram, task_id: &str) -> String {
        let skill = self.profile.skills.channel(Channel::SymbolStateDiagram);
        let p = 1.0
            - (1.0
                - effective_success(
                    skill,
                    &self.profile.name,
                    task_id,
                    Channel::SymbolStateDiagram,
                    self.temperature,
                ))
                * structured_risk_factor(ModalityKind::StateDiagram);
        let mut rng = rng_for(&[&self.profile.name, task_id, "cot-interpret"]);
        if rng.gen::<f64>() < p {
            diagram.to_natural_language()
        } else {
            // Interpret a *corrupted* diagram.
            let mut plan = GenPlan::faithful(
                crate::perception::perceive(&format!(
                    "Implement the finite state machine named `tmp` described by the state diagram below.\n{}",
                    diagram.to_text()
                ))
                .map(|p| p.spec)
                .unwrap_or_else(|_| haven_spec::builders::fsm_ab("tmp")),
            );
            hallucinate::corrupt_state_diagram(&mut plan, &mut rng);
            if let haven_spec::ir::Behavior::Fsm(f) = &plan.spec.behavior {
                fsm_to_diagram(f).to_natural_language()
            } else {
                diagram.to_natural_language()
            }
        }
    }
}

/// Rebuilds a diagram from an FSM spec (for corrupted interpretations).
fn fsm_to_diagram(f: &haven_spec::ir::FsmSpec) -> StateDiagram {
    use haven_modality::state_diagram::StateEdge;
    let mut edges = Vec::new();
    for (i, s) in f.states.iter().enumerate() {
        let (t0, t1) = f.transitions[i];
        for (v, t) in [(0u8, t0), (1u8, t1)] {
            edges.push(StateEdge {
                from: s.clone(),
                output: f.outputs[i],
                input: f.input.clone(),
                input_value: v,
                to: f.states[t].clone(),
            });
        }
    }
    StateDiagram { edges }
}

/// Does the task give the model an opportunity to mishandle corner cases?
///
/// Corner-case hallucination is about *implicit* conditions: a truth
/// table that lists every combination leaves nothing to forget, while a
/// partial table, an ALU with out-of-range opcodes or an if/else chain
/// all have an "otherwise" the model can drop.
fn exercises_corner_cases(p: &Perception) -> bool {
    use haven_spec::ir::Behavior;
    match &p.spec.behavior {
        Behavior::TruthTable(tt) => {
            let full = 1usize << tt.inputs.len().min(16);
            tt.rows.len() < full
        }
        Behavior::Alu(_) => true,
        Behavior::Comb(rules) => rules
            .iter()
            .any(|r| matches!(r.expr, haven_verilog::ast::Expr::Ternary(..))),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ModelProfile;
    use haven_spec::cosim::cosimulate;
    use haven_spec::describe::{describe, DescribeStyle};
    use haven_spec::stimuli::stimuli_for;
    use haven_spec::{builders, Spec};

    fn perfect() -> CodeGenModel {
        CodeGenModel::new(ModelProfile::uniform("perfect", 1.0), 0.2)
    }

    fn hopeless() -> CodeGenModel {
        CodeGenModel::new(ModelProfile::uniform("hopeless", 0.02), 0.8)
    }

    fn run(model: &CodeGenModel, spec: &Spec, samples: usize) -> usize {
        let prompt = describe(spec, DescribeStyle::Engineer);
        let stim = stimuli_for(spec, 7);
        (0..samples)
            .filter(|&i| {
                let src = model.generate(&prompt, &spec.name, i);
                cosimulate(spec, &src, &stim).verdict.functional_ok()
            })
            .count()
    }

    #[test]
    fn perfect_model_always_passes() {
        for spec in [
            builders::counter("cnt", 4, Some(10)),
            builders::fsm_ab("fsm"),
            builders::adder("add", 8),
            builders::alu(
                "alu",
                8,
                vec![haven_spec::ir::AluOp::Add, haven_spec::ir::AluOp::Sub],
            ),
        ] {
            assert_eq!(run(&perfect(), &spec, 5), 5, "{}", spec.name);
        }
    }

    #[test]
    fn hopeless_model_mostly_fails() {
        let spec = builders::fsm_ab("fsm");
        assert!(run(&hopeless(), &spec, 8) <= 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let model = CodeGenModel::new(ModelProfile::uniform("m", 0.6), 0.5);
        let prompt = describe(&builders::counter("c", 4, None), DescribeStyle::Engineer);
        assert_eq!(
            model.generate(&prompt, "t", 3),
            model.generate(&prompt, "t", 3)
        );
    }

    #[test]
    fn samples_differ_for_imperfect_models() {
        let model = CodeGenModel::new(ModelProfile::uniform("m", 0.5), 0.8);
        let prompt = describe(&builders::fsm_ab("f"), DescribeStyle::Engineer);
        let outputs: std::collections::HashSet<String> =
            (0..10).map(|i| model.generate(&prompt, "t", i)).collect();
        assert!(outputs.len() > 1, "all 10 samples identical");
    }

    #[test]
    fn trace_records_channels() {
        let model = perfect();
        let prompt = describe(&builders::counter("c", 4, None), DescribeStyle::Engineer);
        let (_, trace) = model.generate_traced(&prompt, "t", 0);
        assert!(trace.perceived);
        let channels: Vec<Channel> = trace.decisions.iter().map(|d| d.channel).collect();
        assert!(channels.contains(&Channel::KnowledgeConvention));
        assert!(channels.contains(&Channel::KnowledgeAttributes));
        assert!(channels.contains(&Channel::KnowledgeSyntax));
        assert!(channels.contains(&Channel::Interface));
        assert!(!trace.any_fired());
    }

    #[test]
    fn fallback_on_gibberish() {
        let model = perfect();
        let (src, trace) = model.generate_traced("do the thing", "t", 0);
        assert!(!trace.perceived);
        assert!(src.contains("module"));
    }

    #[test]
    fn cot_interpretation_for_good_model_matches_parser_output() {
        let sd = haven_modality::state_diagram::StateDiagram::parse(
            "A[out=0]-[x=0]->B\nA[out=0]-[x=1]->A\nB[out=1]-[x=0]->A\nB[out=1]-[x=1]->B",
        )
        .unwrap();
        let model = perfect();
        assert_eq!(
            model.interpret_state_diagram(&sd, "t"),
            sd.to_natural_language()
        );
    }
}
