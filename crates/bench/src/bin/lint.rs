//! `haven-lint` — command-line front end for the dataflow static analyzer
//! ([`haven_verilog::analyze_static`]) and the convention linter
//! ([`haven_verilog::lint`]), emitting one machine-readable JSON report.
//!
//! ```sh
//! cargo run --release -p haven-bench --bin lint -- design.v
//! cargo run --release -p haven-bench --bin lint -- --pretty design.v
//! cargo run --release -p haven-bench --bin lint -- --format sarif design.v
//! cargo run --release -p haven-bench --bin lint -- --dump-netlist design.v
//! ```
//!
//! Exit codes distinguish the three analysis outcomes so shell pipelines
//! can branch without parsing the JSON:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | compiled; no gating findings (warnings allowed) |
//! | 1    | compiled; the analyzer proved a defect (gating findings) |
//! | 2    | lex/parse/elaboration failure — the file never analyzed |
//! | 3    | usage or IO error (bad flags, unreadable file) |
//!
//! `--format sarif` swaps the report body for a minimal SARIF 2.1 log
//! (rule id, level, location, message — enough for code-scanning UIs);
//! the exit-code ladder above is **format-independent**: a pipeline can
//! upload the SARIF artifact and still branch on the same codes it used
//! with the JSON format. Compile failures emit a single `compile-error`
//! SARIF result and exit 2, exactly mirroring the JSON `compile_error`
//! field. A "gating" finding is an Error-severity finding that is not
//! `unconfirmed` (see [`haven_verilog::analyze_static`]): value-dependent
//! analyzer-v2 findings whose witness replay did not reproduce the
//! defect are reported but never flip exit 0 → 1.
//! The JSON is assembled by hand: every field is a flat string or number,
//! and findings carry the stable rule code, severity, source span, the
//! Table II taxonomy attribution, the analyzer-v2 `confirmation` label
//! (`structural` / `unconfirmed` / `confirmed`) and, for value-dependent
//! findings, the abstract `trace` plus a `witness` stimulus summary, so
//! downstream tooling needs no schema beyond this file. Compilable designs additionally get a `sim_probe`
//! section — a short budget-limited simulation (time-zero settle plus a
//! few clock cycles) whose `status` distinguishes designs that run
//! (`settled`) from those that exhaust the resource budget
//! (`resource_exhausted`) or fault at runtime (`sim_error`). Every
//! report also carries an `engine` section — the structured
//! [`haven_engine::EngineFingerprint`] (hex key plus analyzer rule-set
//! version) of the pipeline that produced it, so reports can be
//! correlated with serve-cache entries and eval memo keys.
//!
//! `--dump-netlist` appends a `netlist` section: the optimized
//! word-level graph the compile pipeline lowers the design to — one
//! entry per cell with its operator mnemonic, static width, operand
//! cell ids, def-use fan-out and logic-level assignment, plus the
//! pass-pipeline rewrite stats (see DESIGN.md §17).

use haven_engine::{Artifact, Engine, SimBackend};
use haven_serve::wire::escape;
use haven_verilog::analyze_static::Severity;
use haven_verilog::elab::SignalKind;
use haven_verilog::lint::lint_module;
use haven_verilog::netlist::level::cell_levels;
use haven_verilog::parser::parse;
use haven_verilog::sim::SimBudget;
use haven_verilog::{CompiledDesign, Expect, PassConfig};

struct Json {
    buf: String,
    pretty: bool,
    depth: usize,
}

impl Json {
    fn new(pretty: bool) -> Json {
        Json {
            buf: String::new(),
            pretty,
            depth: 0,
        }
    }

    fn newline(&mut self) {
        if self.pretty {
            self.buf.push('\n');
            for _ in 0..self.depth {
                self.buf.push_str("  ");
            }
        }
    }

    fn open(&mut self, bracket: char) {
        self.buf.push(bracket);
        self.depth += 1;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        self.newline();
        self.buf.push(bracket);
    }

    fn comma(&mut self, first: &mut bool) {
        if !*first {
            self.buf.push(',');
        }
        *first = false;
        self.newline();
    }

    fn key(&mut self, k: &str) {
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str(if self.pretty { "\": " } else { "\":" });
    }

    fn str_field(&mut self, first: &mut bool, k: &str, v: &str) {
        self.comma(first);
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
    }

    fn num_field(&mut self, first: &mut bool, k: &str, v: usize) {
        self.comma(first);
        self.key(k);
        self.buf.push_str(&v.to_string());
    }
}

/// Budget for the dynamic settle probe: generous enough that any sane
/// single-module design settles and runs a handful of cycles, tight
/// enough that a pathological one cannot hold the lint CLI hostage.
const PROBE_BUDGET: SimBudget = SimBudget {
    max_settle_per_step: 512,
    max_loop_iterations: 10_000,
    max_ticks: 8,
    max_total_work: 200_000,
};

/// Runs the prepared artifact under [`PROBE_BUDGET`]: time-zero settle,
/// then a few clock cycles when a `clk`/`clock` input exists. Only
/// called once the engine has produced an artifact, so compile failures
/// never reach here (they are reported as `compile_error`).
fn sim_probe(engine: &Engine, artifact: &std::sync::Arc<Artifact>) -> (&'static str, usize, usize) {
    let clock = artifact
        .design()
        .signals
        .iter()
        .find(|s| s.kind == SignalKind::Input && (s.name == "clk" || s.name == "clock"))
        .map(|s| s.name.clone());
    match engine.session(artifact) {
        Ok(mut sim) => {
            let status = match clock {
                Some(clk) => match sim.tick_n(&clk, 4) {
                    Ok(()) => "settled",
                    Err(e) if e.is_budget() => "resource_exhausted",
                    Err(_) => "sim_error",
                },
                None => "settled",
            };
            (status, sim.work_units(), sim.ticks())
        }
        Err(e) if e.is_budget() => ("resource_exhausted", 0, 0),
        Err(_) => ("sim_error", 0, 0),
    }
}

fn report(path: &str, source: &str, pretty: bool, dump_netlist: bool) -> (String, i32) {
    // One uncached engine per invocation: the CLI analyzes a single file,
    // so an artifact cache would never see a second hit. The interpreter
    // backend keeps the probe's step accounting identical to the
    // pre-engine CLI.
    let engine = Engine::uncached(SimBackend::Interpreter, PROBE_BUDGET);
    let fingerprint = engine.fingerprint();

    let mut j = Json::new(pretty);
    let mut top_first = true;
    j.open('{');
    j.str_field(&mut top_first, "file", path);

    // Pipeline identity: lets downstream tooling correlate this report
    // with serve-cache entries and eval memo keys produced by the same
    // engine configuration.
    j.comma(&mut top_first);
    j.key("engine");
    j.open('{');
    let mut e_first = true;
    j.str_field(&mut e_first, "backend", "interpreter");
    j.str_field(&mut e_first, "fingerprint", &fingerprint.hex());
    j.num_field(
        &mut e_first,
        "analyzer_version",
        fingerprint.analyzer_version as usize,
    );
    j.close('}');

    // Convention lint runs on the parse tree, module by module, and does
    // not require the file to elaborate.
    let parsed = parse(source);
    j.comma(&mut top_first);
    j.key("lint");
    j.open('[');
    let mut lint_first = true;
    if let Ok(file) = &parsed {
        for module in &file.modules {
            for issue in lint_module(module) {
                j.comma(&mut lint_first);
                let mut f = true;
                j.open('{');
                j.str_field(&mut f, "module", &module.name);
                j.str_field(&mut f, "rule", &format!("{:?}", issue.rule));
                j.str_field(&mut f, "message", &issue.message);
                j.num_field(&mut f, "line", issue.span.line as usize);
                j.num_field(&mut f, "col", issue.span.col as usize);
                j.close('}');
            }
        }
    }
    j.close(']');

    // Dataflow analysis needs the elaborated design; the engine's
    // prepare step runs compile + analyze in one pass and hands back the
    // artifact the probe below reuses.
    let mut exit = 0;
    let mut artifact = None;
    match engine.prepare(source) {
        Ok(prepared) => {
            let rep = &prepared.report;
            j.comma(&mut top_first);
            j.key("static");
            j.open('{');
            let mut s_first = true;
            j.str_field(&mut s_first, "module", &rep.module);
            j.comma(&mut s_first);
            j.key("findings");
            j.open('[');
            let mut f_first = true;
            for finding in &rep.findings {
                j.comma(&mut f_first);
                let mut f = true;
                j.open('{');
                j.str_field(&mut f, "rule", finding.rule.code());
                j.str_field(
                    &mut f,
                    "severity",
                    match finding.severity {
                        Severity::Error => "error",
                        Severity::Warn => "warn",
                    },
                );
                j.str_field(&mut f, "message", &finding.message);
                j.num_field(&mut f, "line", finding.span.line as usize);
                j.num_field(&mut f, "col", finding.span.col as usize);
                if let Some(sig) = &finding.signal {
                    j.str_field(&mut f, "signal", sig);
                }
                j.str_field(&mut f, "taxonomy", finding.rule.taxonomy());
                j.str_field(&mut f, "confirmation", finding.confirmation.label());
                if let Some(ev) = &finding.evidence {
                    if !ev.trace.is_empty() {
                        j.comma(&mut f);
                        j.key("trace");
                        j.open('[');
                        let mut t_first = true;
                        for line in &ev.trace {
                            j.comma(&mut t_first);
                            j.buf.push('"');
                            j.buf.push_str(&escape(line));
                            j.buf.push('"');
                        }
                        j.close(']');
                    }
                    if let Some(w) = &ev.witness {
                        j.comma(&mut f);
                        j.key("witness");
                        j.open('{');
                        let mut w_first = true;
                        j.num_field(&mut w_first, "steps", w.steps.len());
                        j.str_field(&mut w_first, "observe", &w.observe);
                        let expect = match w.expect {
                            Expect::IsX => "is_x".to_string(),
                            Expect::Equals(v) => format!("equals {v}"),
                        };
                        j.str_field(&mut w_first, "expect", &expect);
                        j.close('}');
                    }
                }
                j.close('}');
            }
            j.close(']');
            j.num_field(&mut s_first, "errors", rep.error_count());
            j.close('}');
            if rep.has_errors() {
                exit = 1;
            }
            artifact = Some(prepared);
        }
        Err(e) => {
            j.str_field(&mut top_first, "compile_error", &e.to_string());
            // Distinct from exit 1: nothing was analyzed, so "defective"
            // vs "clean" is unknown — callers gating on findings must not
            // confuse a parse failure with a proven defect.
            exit = 2;
        }
    }

    // Dynamic settle probe under a hard resource budget, so downstream
    // tooling can tell a design that *runs* from one that only compiles.
    if let Some(artifact) = &artifact {
        let (status, work, ticks) = sim_probe(&engine, artifact);
        j.comma(&mut top_first);
        j.key("sim_probe");
        j.open('{');
        let mut p_first = true;
        j.str_field(&mut p_first, "status", status);
        j.num_field(&mut p_first, "work_units", work);
        j.num_field(&mut p_first, "ticks", ticks);
        j.close('}');
    }

    // `--dump-netlist`: the optimized word-level graph the compile
    // pipeline lowered this design to — one entry per cell (operator
    // mnemonic, static width when known, operand cell ids), plus the
    // def-use fan-out and logic-level assignment of every cell and the
    // pass-pipeline stats. The lint probe itself runs interpreted; the
    // dump lowers the already-elaborated design once, on demand.
    if dump_netlist {
        if let Some(artifact) = &artifact {
            let cd = CompiledDesign::with_passes(artifact.design().clone(), PassConfig::full());
            let nl = cd
                .netlist()
                .expect("compiled design carries the netlist rung");
            let uses = nl.use_counts();
            let levels = cell_levels(nl);
            let stats = cd.pass_stats();
            j.comma(&mut top_first);
            j.key("netlist");
            j.open('{');
            let mut n_first = true;
            j.num_field(&mut n_first, "cells", nl.cell_count());
            j.num_field(
                &mut n_first,
                "roots",
                nl.roots().iter().filter(|r| r.is_some()).count(),
            );
            j.comma(&mut n_first);
            j.key("passes");
            j.open('{');
            let mut ps_first = true;
            j.num_field(&mut ps_first, "rounds", stats.rounds as usize);
            j.num_field(&mut ps_first, "normalized", stats.normalized as usize);
            j.num_field(&mut ps_first, "folded", stats.folded as usize);
            j.num_field(&mut ps_first, "lowered", stats.lowered as usize);
            j.num_field(&mut ps_first, "rebalanced", stats.rebalanced as usize);
            j.num_field(&mut ps_first, "cells_in", stats.cells_in as usize);
            j.num_field(&mut ps_first, "cells_out", stats.cells_out as usize);
            j.close('}');
            j.comma(&mut n_first);
            j.key("cells");
            j.open('[');
            let mut c_first = true;
            for id in 0..nl.cell_count() as u32 {
                j.comma(&mut c_first);
                let mut f = true;
                j.open('{');
                j.num_field(&mut f, "id", id as usize);
                j.str_field(&mut f, "op", &nl.kind(id).mnemonic());
                if let Some(w) = nl.width(id) {
                    j.num_field(&mut f, "width", w);
                }
                j.comma(&mut f);
                j.key("operands");
                j.open('[');
                let mut o_first = true;
                nl.kind(id).for_each_operand(|o| {
                    j.comma(&mut o_first);
                    j.buf.push_str(&o.to_string());
                });
                j.close(']');
                j.num_field(&mut f, "uses", uses[id as usize] as usize);
                j.num_field(&mut f, "level", levels[id as usize] as usize);
                j.close('}');
            }
            j.close(']');
            j.close('}');
        }
    }

    j.close('}');
    (j.buf, exit)
}

/// One result row of the SARIF log, format-agnostic.
struct SarifResult {
    rule: String,
    level: &'static str,
    message: String,
    line: usize,
    col: usize,
    confirmation: Option<&'static str>,
}

/// Minimal SARIF 2.1 log: tool driver with the distinct rule ids, one
/// result per finding with level, message and physical location. The
/// exit code is computed from the same gating predicate as the JSON
/// format, so `--format sarif` never changes a pipeline's branching.
fn sarif_report(path: &str, source: &str, pretty: bool) -> (String, i32) {
    let engine = Engine::uncached(SimBackend::Interpreter, PROBE_BUDGET);
    let mut results: Vec<SarifResult> = Vec::new();
    let mut exit = 0;
    if let Ok(file) = &parse(source) {
        for module in &file.modules {
            for issue in lint_module(module) {
                results.push(SarifResult {
                    rule: format!("{:?}", issue.rule),
                    level: "note",
                    message: issue.message,
                    line: issue.span.line as usize,
                    col: issue.span.col as usize,
                    confirmation: None,
                });
            }
        }
    }
    match engine.prepare(source) {
        Ok(artifact) => {
            for finding in &artifact.report.findings {
                results.push(SarifResult {
                    rule: finding.rule.code().to_string(),
                    level: match finding.severity {
                        Severity::Error => "error",
                        Severity::Warn => "warning",
                    },
                    message: finding.message.clone(),
                    line: finding.span.line as usize,
                    col: finding.span.col as usize,
                    confirmation: Some(finding.confirmation.label()),
                });
            }
            if artifact.report.has_errors() {
                exit = 1;
            }
        }
        Err(e) => {
            results.push(SarifResult {
                rule: "compile-error".to_string(),
                level: "error",
                message: e.to_string(),
                line: 1,
                col: 1,
                confirmation: None,
            });
            exit = 2;
        }
    }

    let rules: std::collections::BTreeSet<&str> = results.iter().map(|r| r.rule.as_str()).collect();
    let mut j = Json::new(pretty);
    let mut top = true;
    j.open('{');
    j.str_field(&mut top, "version", "2.1.0");
    j.str_field(
        &mut top,
        "$schema",
        "https://json.schemastore.org/sarif-2.1.0.json",
    );
    j.comma(&mut top);
    j.key("runs");
    j.open('[');
    let mut runs_first = true;
    j.comma(&mut runs_first);
    j.open('{');
    let mut run_first = true;
    j.comma(&mut run_first);
    j.key("tool");
    j.open('{');
    let mut tool_first = true;
    j.comma(&mut tool_first);
    j.key("driver");
    j.open('{');
    let mut drv_first = true;
    j.str_field(&mut drv_first, "name", "haven-lint");
    j.str_field(
        &mut drv_first,
        "version",
        &haven_verilog::ANALYZER_VERSION.to_string(),
    );
    j.comma(&mut drv_first);
    j.key("rules");
    j.open('[');
    let mut rules_first = true;
    for rule in &rules {
        j.comma(&mut rules_first);
        let mut r = true;
        j.open('{');
        j.str_field(&mut r, "id", rule);
        j.close('}');
    }
    j.close(']');
    j.close('}'); // driver
    j.close('}'); // tool
    j.comma(&mut run_first);
    j.key("results");
    j.open('[');
    let mut res_first = true;
    for result in &results {
        j.comma(&mut res_first);
        let mut r = true;
        j.open('{');
        j.str_field(&mut r, "ruleId", &result.rule);
        j.str_field(&mut r, "level", result.level);
        j.comma(&mut r);
        j.key("message");
        j.open('{');
        let mut m = true;
        j.str_field(&mut m, "text", &result.message);
        j.close('}');
        if let Some(confirmation) = result.confirmation {
            j.comma(&mut r);
            j.key("properties");
            j.open('{');
            let mut p = true;
            j.str_field(&mut p, "confirmation", confirmation);
            j.close('}');
        }
        j.comma(&mut r);
        j.key("locations");
        j.open('[');
        let mut locs_first = true;
        j.comma(&mut locs_first);
        j.open('{');
        let mut loc = true;
        j.comma(&mut loc);
        j.key("physicalLocation");
        j.open('{');
        let mut phys = true;
        j.comma(&mut phys);
        j.key("artifactLocation");
        j.open('{');
        let mut art = true;
        j.str_field(&mut art, "uri", path);
        j.close('}');
        j.comma(&mut phys);
        j.key("region");
        j.open('{');
        let mut reg = true;
        // SARIF requires positive line/column numbers; synthetic spans
        // (line 0) clamp to 1.
        j.num_field(&mut reg, "startLine", result.line.max(1));
        j.num_field(&mut reg, "startColumn", result.col.max(1));
        j.close('}');
        j.close('}'); // physicalLocation
        j.close('}'); // location
        j.close(']'); // locations
        j.close('}'); // result
    }
    j.close(']'); // results
    j.close('}'); // run
    j.close(']'); // runs
    j.close('}');
    (j.buf, exit)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pretty = args.iter().any(|a| a == "--pretty");
    let dump_netlist = args.iter().any(|a| a == "--dump-netlist");
    let mut format = String::from("json");
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--format" {
            i += 1;
            match args.get(i) {
                Some(v) => format = v.clone(),
                None => {
                    eprintln!(
                        "usage: lint [--pretty] [--dump-netlist] [--format json|sarif] <file.v>"
                    );
                    std::process::exit(3);
                }
            }
        } else if let Some(v) = arg.strip_prefix("--format=") {
            format = v.to_string();
        } else if !arg.starts_with("--") {
            files.push(arg.clone());
        }
        i += 1;
    }
    let [path] = files.as_slice() else {
        eprintln!("usage: lint [--pretty] [--dump-netlist] [--format json|sarif] <file.v>");
        std::process::exit(3);
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lint: cannot read {path}: {e}");
            std::process::exit(3);
        }
    };
    let (json, exit) = match format.as_str() {
        "json" => report(path, &source, pretty, dump_netlist),
        "sarif" => sarif_report(path, &source, pretty),
        other => {
            eprintln!("lint: unknown format `{other}` (expected json or sarif)");
            std::process::exit(3);
        }
    };
    println!("{json}");
    std::process::exit(exit);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_module_reports_no_errors_and_valid_json() {
        let src = "module c(input clk, input rst_n, output reg [3:0] q);\n always @(posedge clk or negedge rst_n)\n  if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nendmodule\n";
        let (json, exit) = report("c.v", src, false, false);
        assert_eq!(exit, 0);
        assert!(json.contains("\"errors\":0"), "{json}");
        assert!(json.contains("\"module\":\"c\""), "{json}");
        assert!(json.contains("\"status\":\"settled\""), "{json}");
        assert!(json.contains("\"ticks\":4"), "{json}");
        assert!(
            !json.contains("\"netlist\""),
            "netlist section must be opt-in: {json}"
        );
    }

    #[test]
    fn dump_netlist_reports_cells_uses_and_levels() {
        let src = "module d(input [3:0] a, input [3:0] b, output [3:0] y);\n assign y = (a & b) ^ (a & b);\nendmodule\n";
        let (json, exit) = report("d.v", src, false, true);
        assert_eq!(exit, 0);
        assert!(json.contains("\"netlist\":{"), "{json}");
        assert!(json.contains("\"cells\":"), "{json}");
        assert!(json.contains("\"passes\":{"), "{json}");
        assert!(json.contains("\"rounds\":"), "{json}");
        // Cell entries carry the def-use and depth annotations.
        assert!(json.contains("\"uses\":"), "{json}");
        assert!(json.contains("\"level\":"), "{json}");
        assert!(json.contains("\"operands\":["), "{json}");
        // The shared `(a & b)` subterm is one cell with fan-out, and the
        // xor of identical operands is visible in the dumped mnemonics.
        assert!(json.contains("\"op\":\"load s0\""), "{json}");
        assert!(json.contains("\"op\":\"bitand\""), "{json}");
        // Compile failures keep the section absent rather than emitting
        // a partial graph.
        let (broken, exit) = report("b.v", "not verilog", false, true);
        assert_eq!(exit, 2);
        assert!(!broken.contains("\"netlist\""), "{broken}");
    }

    #[test]
    fn every_report_carries_the_engine_fingerprint() {
        let clean = "module c(input a, output y);\n assign y = a;\nendmodule\n";
        let expected = Engine::uncached(SimBackend::Interpreter, PROBE_BUDGET)
            .fingerprint()
            .hex();
        for src in [clean, "not verilog at all"] {
            let (json, _) = report("c.v", src, false, false);
            assert!(
                json.contains(&format!("\"fingerprint\":\"{expected}\"")),
                "{json}"
            );
            assert!(json.contains("\"analyzer_version\":2"), "{json}");
        }
    }

    #[test]
    fn defective_module_exits_nonzero_with_rule_code() {
        let src = "module c(input clk, output reg [3:0] q);\n always @(posedge clk) q <= q + 4'd1;\nendmodule\n";
        let (json, exit) = report("c.v", src, false, false);
        assert_eq!(exit, 1);
        assert!(json.contains("SA-XSOURCE"), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(
            json.contains("\"taxonomy\":\"ConventionMisapplication\""),
            "{json}"
        );
    }

    #[test]
    fn unparseable_file_reports_compile_error() {
        let (json, exit) = report("x.v", "not verilog at all", false, false);
        assert_eq!(exit, 2, "parse failure must be distinct from findings");
        assert!(json.contains("compile_error"), "{json}");
        assert!(!json.contains("sim_probe"), "{json}");
    }

    #[test]
    fn warnings_alone_keep_the_clean_exit_code() {
        // A constant condition is a Warn-severity finding: reported in
        // the JSON but not a gating defect, so the exit stays 0.
        let src = "module w(input a, output reg y);\n\
                   always @(*) if (1'b1) y = a; else y = 1'b0;\nendmodule\n";
        let (json, exit) = report("w.v", src, false, false);
        assert_eq!(exit, 0, "warn-only reports must exit 0: {json}");
        assert!(json.contains("\"severity\":\"warn\""), "{json}");
        assert!(json.contains("\"errors\":0"), "{json}");
    }

    #[test]
    fn exit_codes_form_a_strict_ladder() {
        let clean = "module c(input a, output y);\n assign y = a;\nendmodule\n";
        let defective =
            "module d(input clk, output reg q);\n always @(posedge clk) q <= q;\nendmodule\n";
        assert_eq!(report("c.v", clean, false, false).1, 0);
        assert_eq!(report("d.v", defective, false, false).1, 1);
        assert_eq!(report("b.v", "garbage(", false, false).1, 2);
        // Exit 3 (usage/IO) is owned by main() and has no report() path.
    }

    #[test]
    fn escaping_keeps_json_well_formed() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn findings_expose_confirmation_labels() {
        let src = "module w(input a, output reg y);\n\
                   always @(*) if (1'b1) y = a; else y = 1'b0;\nendmodule\n";
        let (json, _) = report("w.v", src, false, false);
        assert!(json.contains("\"confirmation\":\"structural\""), "{json}");
    }

    #[test]
    fn value_findings_carry_trace_and_witness_summary() {
        let src = "module m(input clk, input rst, output reg [3:0] q, output reg [3:0] r);\n\
                    always @(posedge clk)\n\
                     if (rst) q <= 4'd0;\n\
                     else begin q <= q + 4'd1; r <= r + 4'd1; end\nendmodule\n";
        let (json, _) = report("m.v", src, false, false);
        assert!(json.contains("\"confirmation\":\"confirmed\""), "{json}");
        assert!(json.contains("\"witness\":"), "{json}");
        assert!(json.contains("\"expect\":\"is_x\""), "{json}");
    }

    #[test]
    fn sarif_log_has_rules_results_and_locations() {
        let src = "module c(input clk, output reg [3:0] q);\n always @(posedge clk) q <= q + 4'd1;\nendmodule\n";
        let (sarif, exit) = sarif_report("c.v", src, false);
        assert_eq!(exit, 1);
        assert!(sarif.contains("\"version\":\"2.1.0\""), "{sarif}");
        assert!(sarif.contains("\"name\":\"haven-lint\""), "{sarif}");
        assert!(sarif.contains("\"id\":\"SA-XSOURCE\""), "{sarif}");
        assert!(sarif.contains("\"ruleId\":\"SA-XSOURCE\""), "{sarif}");
        assert!(sarif.contains("\"level\":\"error\""), "{sarif}");
        assert!(sarif.contains("\"uri\":\"c.v\""), "{sarif}");
        assert!(sarif.contains("\"startLine\":"), "{sarif}");
    }

    #[test]
    fn sarif_exit_codes_match_the_json_ladder() {
        let clean = "module c(input a, output y);\n assign y = a;\nendmodule\n";
        let defective =
            "module d(input clk, output reg q);\n always @(posedge clk) q <= q;\nendmodule\n";
        for (src, want) in [(clean, 0), (defective, 1), ("garbage(", 2)] {
            let (_, json_exit) = report("f.v", src, false, false);
            let (sarif, sarif_exit) = sarif_report("f.v", src, false);
            assert_eq!(json_exit, want, "json ladder");
            assert_eq!(sarif_exit, want, "sarif must share the ladder: {sarif}");
        }
    }

    #[test]
    fn sarif_compile_failure_is_a_single_error_result() {
        let (sarif, exit) = sarif_report("x.v", "not verilog at all", false);
        assert_eq!(exit, 2);
        assert!(sarif.contains("\"ruleId\":\"compile-error\""), "{sarif}");
        assert!(sarif.contains("\"level\":\"error\""), "{sarif}");
    }
}
