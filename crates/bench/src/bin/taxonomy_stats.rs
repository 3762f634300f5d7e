//! Regenerates the **taxonomy evidence behind Table II / §II**: classify
//! every failed generation on VerilogEval-human into the hallucination
//! taxonomy, for a base model and for HaVen built on it — showing *which*
//! classes each HaVen technique removes.
//!
//! ```sh
//! cargo run --release -p haven-bench --bin taxonomy_stats [-- --quick]
//! ```

use std::collections::BTreeMap;

use haven::diagnose::diagnose;
use haven::experiments::{haven_roster, Suites};
use haven::taxonomy::HallucinationClass;
use haven_bench::scale_from_args;
use haven_eval::report::Table;
use haven_lm::model::CodeGenModel;
use haven_lm::perception::perceive;
use haven_lm::profiles;
use haven_sicot::SiCot;
use haven_spec::cosim::cosimulate;
use haven_spec::stimuli::stimuli_for;

fn main() {
    let scale = scale_from_args();
    let suites = Suites::generate(&scale);
    let flow = haven_datagen::run(&scale.flow);
    let haven = haven_roster(&flow)
        .into_iter()
        .nth(2)
        .expect("CodeQwen HaVen");

    let samples = 3usize;
    let mut rows: Vec<(String, BTreeMap<&'static str, usize>, usize, usize)> = Vec::new();
    for (profile, sicot) in [
        (profiles::base_codeqwen(), false),
        (haven.profile.clone(), true),
    ] {
        eprintln!("classifying failures of {}", profile.name);
        let model = CodeGenModel::new(profile.clone(), 0.2);
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut failures = 0usize;
        let mut total = 0usize;
        for task in &suites.human {
            let prompt = if sicot {
                SiCot::new(model.clone())
                    .refine(&task.prompt, &task.id)
                    .text
            } else {
                task.prompt.clone()
            };
            let perception = perceive(&prompt).ok();
            let stim = stimuli_for(&task.spec, task.stim_seed);
            for i in 0..samples {
                total += 1;
                let (src, _) = model.generate_perceived(perception.as_ref(), &task.id, i);
                let report = cosimulate(&task.spec, &src, &stim);
                if report.verdict.functional_ok() {
                    continue;
                }
                failures += 1;
                let d = diagnose(&task.spec, &src, &report.verdict, task.modality);
                let label = match d.class {
                    Some(HallucinationClass::Symbolic) => "symbolic",
                    Some(HallucinationClass::Knowledge) => "knowledge",
                    Some(HallucinationClass::Logical) => "logical",
                    None => "unattributed",
                };
                *counts.entry(label).or_default() += 1;
            }
        }
        rows.push((profile.name.clone(), counts, failures, total));
    }

    let mut table = Table::new(vec![
        "Model",
        "failures",
        "symbolic",
        "knowledge",
        "logical",
        "unattributed",
    ]);
    for (name, counts, failures, total) in &rows {
        let pct = |k: &str| {
            let c = counts.get(k).copied().unwrap_or(0);
            if *failures == 0 {
                "0".to_string()
            } else {
                format!("{c} ({:.0}%)", 100.0 * c as f64 / *failures as f64)
            }
        };
        table.row(vec![
            name.clone(),
            format!("{failures}/{total}"),
            pct("symbolic"),
            pct("knowledge"),
            pct("logical"),
            pct("unattributed"),
        ]);
    }
    println!("\nHallucination-class attribution of failures on VerilogEval-human\n");
    println!("{}", table.render());
    println!("Reading: HaVen removes roughly half the failures. The K-dataset wipes most knowledge-class errors (the base model's dominant bucket), so the residual failure mix shifts toward the symbolic and logical classes — attribution picks one cause per failure, and knowledge evidence (lint, attribute mismatch) masks co-occurring symbolic errors in the base model.");
}
