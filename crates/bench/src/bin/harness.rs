//! The experiment harness: regenerates the paper's quantitative claims
//! (experiments E1–E8, plus the E14 planner ablation; see
//! `docs/PERFORMANCE.md`) and prints markdown tables (stdout) plus
//! machine-readable JSON (`results/experiments.json`).
//!
//! Usage:
//!
//! ```text
//! harness [--quick] [e1 e2 …]   # default: all experiments, full sizes
//! ```
//!
//! An unknown experiment id or flag is an error (exit status 2), so a
//! typo'd CI step cannot pass having run nothing.

use nrc_bench::Table;
use nrc_bench::{
    e14_planner, e1_related, e2_filter, e3_recursive, e4_cost, e5_deep, e6_circuit, e7_degree,
    e8_batch,
};
use nrc_obs::json::Json;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, selected): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    let quick = flags.contains(&"--quick");
    let want = |id: &str| selected.is_empty() || selected.contains(&id);

    type Runner = fn(bool) -> Table;
    let mut tables: Vec<Table> = Vec::new();
    let runs: Vec<(&str, Runner)> = vec![
        ("e1", e1_related::run),
        ("e2", e2_filter::run),
        ("e3", e3_recursive::run),
        ("e4", e4_cost::run),
        ("e5", e5_deep::run),
        ("e6", e6_circuit::run),
        ("e7", e7_degree::run),
        ("e8", e8_batch::run),
        ("e14", e14_planner::run),
    ];
    let known: Vec<&str> = runs.iter().map(|(id, _)| *id).collect();
    let unknown: Vec<&str> = selected
        .iter()
        .filter(|sel| !known.contains(sel))
        .chain(flags.iter().filter(|f| **f != "--quick"))
        .copied()
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "error: unknown argument(s) `{}` (flags: --quick; experiments: {})",
            unknown.join("`, `"),
            known.join(", ")
        );
        std::process::exit(2);
    }
    for (id, f) in runs {
        if want(id) {
            eprintln!("running {id}{}…", if quick { " (quick)" } else { "" });
            let t = f(quick);
            print!("{}", t.to_markdown());
            tables.push(t);
        }
    }

    if let Err(e) = write_json(&tables) {
        eprintln!("warning: could not write results/experiments.json: {e}");
    }
}

fn write_json(tables: &[Table]) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/experiments.json")?;
    let json = Json::Array(tables.iter().map(Table::to_json).collect()).to_pretty();
    f.write_all(json.as_bytes())
}
