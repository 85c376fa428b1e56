//! Regenerate the evaluation: every table (T1–T15), figure (F1–F6) and
//! ablation (A2–A5) of DESIGN.md, written to `target/repro/*.{md,csv}`.
//!
//! ```text
//! cargo run --release -p mdp-bench --bin repro            # full suite
//! cargo run --release -p mdp-bench --bin repro -- --quick # CI-size
//! cargo run --release -p mdp-bench --bin repro -- t2 f3   # selected ids
//! ```

use mdp_bench::experiments;
use mdp_bench::Effort;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let effort = if quick { Effort::Quick } else { Effort::Full };
    let ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .collect();
    let selected: Vec<&str> = if ids.is_empty() {
        experiments::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };

    println!(
        "# mdp reproduction run ({} mode): {} experiment(s)\n",
        if quick { "quick" } else { "full" },
        selected.len()
    );
    let total = Instant::now();
    let mut failed = Vec::new();
    for id in &selected {
        let start = Instant::now();
        eprintln!("--- running {id} ---");
        if experiments::run(id, effort) {
            eprintln!("--- {id} done in {:.1}s ---", start.elapsed().as_secs_f64());
        } else {
            eprintln!("!!! unknown experiment id: {id}");
            failed.push(*id);
        }
    }
    eprintln!(
        "\nAll done in {:.1}s. Artifacts in {}.",
        total.elapsed().as_secs_f64(),
        mdp_bench::out_dir().display()
    );
    if !failed.is_empty() {
        eprintln!("Unknown ids: {failed:?} (known: {:?})", experiments::ALL);
        std::process::exit(2);
    }
}
