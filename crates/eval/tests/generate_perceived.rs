//! Reading a prompt once and sharing the reading across samples must be
//! invisible: for every suite task, raw and SI-CoT-refined, at every
//! swept temperature and sample index, `generate_perceived` on a
//! pre-computed perception returns exactly what `generate_traced` returns
//! on the prompt text — the same source and the same channel trace.

use haven_eval::suites;
use haven_lm::model::CodeGenModel;
use haven_lm::perception::perceive;
use haven_lm::profiles::{self, ModelProfile};
use haven_sicot::SiCot;

const TEMPERATURES: [f64; 3] = [0.2, 0.5, 0.8];
const SAMPLES: usize = 10;

#[test]
fn shared_perception_generates_what_the_prompt_does() {
    let tasks: Vec<_> = [
        suites::verilog_eval_machine(1),
        suites::verilog_eval_human(1),
        suites::symbolic44(1),
        suites::rtllm(1),
        suites::verilog_eval_v2(1),
    ]
    .into_iter()
    .flatten()
    .collect();
    // A weak profile fires channels often, a strong one rarely, so both
    // the corrupted and the faithful rendering paths are compared.
    let profiles: [ModelProfile; 2] = [profiles::base_codellama(), profiles::gpt4()];
    let refiner = SiCot::new(CodeGenModel::new(profiles::base_codeqwen(), 0.2));
    let mut prompts: Vec<(String, String)> = Vec::new();
    for task in &tasks {
        prompts.push((task.id.clone(), task.prompt.clone()));
        let refined = refiner.refine(&task.prompt, &task.id).text;
        prompts.push((task.id.clone(), refined));
    }
    // Unperceivable: covers the fallback path.
    prompts.push(("gibberish".into(), "please write something nice".into()));

    let (mut cases, mut fired, mut unfired, mut fallback) = (0usize, 0, 0, 0);
    for (task_id, prompt) in &prompts {
        let perception = perceive(prompt).ok();
        for profile in &profiles {
            for &temperature in &TEMPERATURES {
                let model = CodeGenModel::new(profile.clone(), temperature);
                for sample in 0..SAMPLES {
                    let shared = model.generate_perceived(perception.as_ref(), task_id, sample);
                    let direct = model.generate_traced(prompt, task_id, sample);
                    assert_eq!(
                        shared, direct,
                        "{} at {temperature} sample {sample}: shared perception diverged\n{prompt}",
                        profile.name
                    );
                    cases += 1;
                    match (shared.1.perceived, shared.1.any_fired()) {
                        (false, _) => fallback += 1,
                        (true, true) => fired += 1,
                        (true, false) => unfired += 1,
                    }
                }
            }
        }
    }
    assert_eq!(tasks.len(), 528, "suite sizes changed");
    assert_eq!(cases, (2 * 528 + 1) * 2 * 3 * SAMPLES);
    assert!(
        fired > 0,
        "no sample hallucinated: corrupted paths untested"
    );
    assert!(
        unfired > 0,
        "every sample hallucinated: faithful path untested"
    );
    assert!(fallback >= 2 * 3 * SAMPLES, "fallback path untested");
}
