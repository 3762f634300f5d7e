//! Regenerates the **§III-C/D dataset funnel**: corpus → captioned →
//! verified vanilla → matched → K-dataset, plus the L-dataset — the
//! counts the paper quotes as ≈550k → ≈43k vanilla → 14k K + 5k L.
//!
//! ```sh
//! cargo run --release -p haven-bench --bin dataset_stats [-- --quick]
//! cargo run --release -p haven-bench --bin dataset_stats -- --export out/
//! ```
//!
//! `--export <dir>` additionally writes the three datasets as JSON
//! (`vanilla.json`, `k_dataset.json`, `l_dataset.json`).

use std::fmt::Write as _;
use std::time::Instant;

use haven_bench::scale_from_args;
use haven_datagen::augment::SETTLE_BUDGET;
use haven_datagen::Dataset;
use haven_engine::{Engine, SimBackend};
use haven_eval::report::Table;
use haven_serve::wire::escape;

/// Pretty-printed JSON of a dataset: `{"pairs": [...]}` with one object
/// per pair, fields named as in `InstructionCodePair`, enums spelled by
/// variant name and a missing logic category as `null`.
fn dataset_json(data: &Dataset) -> String {
    if data.is_empty() {
        return "{\n  \"pairs\": []\n}".into();
    }
    let mut out = String::from("{\n  \"pairs\": [");
    for (i, p) in data.pairs.iter().enumerate() {
        let category = p
            .logic_category
            .map_or("null".into(), |c| format!("\"{c:?}\""));
        let _ = write!(
            out,
            "{}\n    {{\n      \"instruction\": \"{}\",\n      \"code\": \"{}\",\n      \"kind\": \"{:?}\",\n      \"topic\": \"{:?}\",\n      \"has_attributes\": {},\n      \"logic_category\": {category}\n    }}",
            if i == 0 { "" } else { "," },
            escape(&p.instruction),
            escape(&p.code),
            p.kind,
            p.topic,
            p.has_attributes,
        );
    }
    out.push_str("\n  ]\n}");
    out
}

/// Re-runs the step-8 settle probe over the verified pairs with both
/// backends, so the funnel report shows what the compiled backend buys
/// (`verify_counted` itself only runs the compiled one). Artifacts are
/// prepared outside the timed region: the probe measures session boot
/// (time-zero settle), not compilation.
fn settle_probe_walls(flow: &haven_datagen::FlowOutput) -> (f64, f64, usize) {
    let interp_engine = Engine::uncached(SimBackend::Interpreter, SETTLE_BUDGET);
    let compiled_engine = Engine::uncached(SimBackend::Compiled, SETTLE_BUDGET);
    let pairs: Vec<&str> = flow
        .vanilla
        .pairs
        .iter()
        .chain(&flow.k_dataset.pairs)
        .map(|p| p.code.as_str())
        .collect();
    let interp_arts: Vec<_> = pairs
        .iter()
        .map(|code| interp_engine.prepare(code).expect("verified pairs compile"))
        .collect();
    let compiled_arts: Vec<_> = pairs
        .iter()
        .map(|code| {
            compiled_engine
                .prepare(code)
                .expect("verified pairs compile")
        })
        .collect();

    let t = Instant::now();
    for a in &interp_arts {
        let _ = interp_engine.session(a);
    }
    let interp_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    for a in &compiled_arts {
        let _ = compiled_engine.session(a);
    }
    let compiled_ms = t.elapsed().as_secs_f64() * 1e3;

    (interp_ms, compiled_ms, pairs.len())
}

fn main() {
    let scale = scale_from_args();
    let flow = haven_datagen::run(&scale.flow);
    let s = flow.stats;

    // Optional JSON export.
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--export") {
        let dir = std::path::PathBuf::from(
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or("dataset-export"),
        );
        std::fs::create_dir_all(&dir).expect("create export dir");
        for (name, data) in [
            ("vanilla.json", &flow.vanilla),
            ("k_dataset.json", &flow.k_dataset),
            ("l_dataset.json", &flow.l_dataset),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, dataset_json(data)).expect("write dataset");
            eprintln!("wrote {} ({} pairs)", path.display(), data.len());
        }
    }

    let ratio = 550_000.0 / s.corpus_files as f64;
    let mut table = Table::new(vec!["Stage", "Ours", "x scale", "Paper"]);
    let row = |stage: &str, ours: usize, paper: &str| {
        vec![
            stage.to_string(),
            ours.to_string(),
            format!("{:.0}", ours as f64 * ratio),
            paper.to_string(),
        ]
    };
    table.row(row(
        "corpus files (step 5 input)",
        s.corpus_files,
        "~550,000",
    ));
    table.row(row("captioned", s.captioned, "n/a"));
    table.row(row("vanilla pairs, verified", s.vanilla_valid, "~43,000"));
    table.row(row(
        "  rejected by static analyzer",
        s.vanilla_rejected_static,
        "n/a",
    ));
    table.row(row(
        "  rejected by sim budget",
        s.vanilla_rejected_budget,
        "n/a",
    ));
    table.row(row("matched >=1 exemplar (step 6)", s.matched, "n/a"));
    table.row(row("K-dataset pairs (steps 7-8)", s.k_pairs, "~14,000"));
    table.row(row(
        "  rejected by static analyzer",
        s.k_rejected_static,
        "n/a",
    ));
    table.row(row("  rejected by sim budget", s.k_rejected_budget, "n/a"));
    table.row(row("L-dataset pairs (steps 9-12)", s.l_pairs, "~5,000"));
    table.row(row(
        "KL-dataset (shuffled, step 13)",
        s.k_pairs + s.l_pairs,
        "~19,000",
    ));

    println!(
        "\nDataset generation funnel (Fig. 2), scale 1:{:.0}\n",
        ratio
    );
    println!("{}", table.render());

    // Composition breakdown.
    let mut topics = std::collections::BTreeMap::<&str, usize>::new();
    for p in &flow.k_dataset.pairs {
        *topics.entry(p.topic.label()).or_default() += 1;
    }
    let mut t2 = Table::new(vec!["K-dataset topic", "pairs"]);
    for (topic, n) in topics {
        t2.row(vec![topic.to_string(), n.to_string()]);
    }
    println!("{}", t2.render());

    // Step-8 verification cost: the wall-time the flow recorded (the
    // production path, compiled backend; K rewrites inherit their
    // sample's verdict) plus an interpreter-vs-compiled before/after over
    // the same verified pairs.
    println!(
        "Step-8 verification wall-time: {:.1} ms over {} captioned samples (compiled settle probe)",
        s.vanilla_verify_micros as f64 / 1e3,
        s.captioned,
    );
    let (interp_ms, compiled_ms, n) = settle_probe_walls(&flow);
    println!(
        "Settle probe over {n} verified pairs: interpreter {interp_ms:.1} ms -> compiled {compiled_ms:.1} ms ({:.2}x)",
        interp_ms / compiled_ms.max(1e-9),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use haven_datagen::InstructionCodePair;
    use haven_lm::finetune::{LogicCategory, SampleKind};
    use haven_verilog::analyze::Topic;

    #[test]
    fn export_is_pinned_for_a_two_pair_dataset() {
        let d: Dataset = vec![
            InstructionCodePair {
                instruction: "Implement a \"counter\".".into(),
                code: "module m;\nendmodule".into(),
                kind: SampleKind::Knowledge,
                topic: Topic::Counter,
                has_attributes: true,
                logic_category: None,
            },
            InstructionCodePair {
                instruction: "Implement the logic below:".into(),
                code: "module l; endmodule".into(),
                kind: SampleKind::Logic,
                topic: Topic::CombLogic,
                has_attributes: false,
                logic_category: Some(LogicCategory::Instruction),
            },
        ]
        .into_iter()
        .collect();
        let golden = r#"{
  "pairs": [
    {
      "instruction": "Implement a \"counter\".",
      "code": "module m;\nendmodule",
      "kind": "Knowledge",
      "topic": "Counter",
      "has_attributes": true,
      "logic_category": null
    },
    {
      "instruction": "Implement the logic below:",
      "code": "module l; endmodule",
      "kind": "Logic",
      "topic": "CombLogic",
      "has_attributes": false,
      "logic_category": "Instruction"
    }
  ]
}"#;
        assert_eq!(dataset_json(&d), golden);
        assert_eq!(dataset_json(&Dataset::new()), "{\n  \"pairs\": []\n}");
    }
}
