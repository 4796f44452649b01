//! Regenerates every table and figure of the paper plus the extension
//! ablations, writes each to `results/`, and rebuilds `EXPERIMENTS.md`
//! with the full paper-vs-measured record.

use std::fmt::Write as _;

type Experiment = fn() -> eards_bench::ExperimentResult;

/// Heading of the hand-maintained tail of `EXPERIMENTS.md`, kept across
/// regenerations.
const PERF_HISTORY: &str = "## Performance history";

#[allow(clippy::disallowed_methods)] // harness reports wall time per experiment
fn main() {
    let t0 = std::time::Instant::now();
    let experiments: Vec<(&str, Experiment)> = vec![
        ("Table I", eards_bench::exp_table1::run),
        ("Figure 1", eards_bench::exp_fig1::run),
        ("Figures 2–3", eards_bench::exp_fig23::run),
        ("Table II", eards_bench::exp_table2::run),
        ("Table III", eards_bench::exp_table3::run),
        ("Table IV", eards_bench::exp_table4::run),
        ("Table V", eards_bench::exp_table5::run),
        (
            "Reliability ablation",
            eards_bench::exp_ablation_reliability::run,
        ),
        ("Chaos engine", eards_bench::exp_chaos::run),
        ("Degradation ladder", eards_bench::exp_degrade::run),
        ("SLA ablation", eards_bench::exp_ablation_sla::run),
        (
            "Adaptive-λ ablation",
            eards_bench::exp_ablation_adaptive::run,
        ),
        (
            "Power-model ablation",
            eards_bench::exp_ablation_powermodel::run,
        ),
        ("Economics extension", eards_bench::exp_economics::run),
        ("Seed robustness", eards_bench::exp_robustness::run),
        ("Solver timing", eards_bench::exp_solver_timing::run),
        ("Observability overhead", eards_bench::exp_obs::run),
    ];

    let mut doc = String::from(
        "# EXPERIMENTS — paper vs measured\n\n\
         Regenerated by `cargo run --release -p eards-bench --bin run_all`.\n\
         Every table and figure of the paper's evaluation (§IV–V) appears \
         below with the paper's reported numbers quoted and our measured \
         values next to them. Absolute joules differ (our substrate is a \
         calibrated simulator over a synthetic Grid5000-like trace — see \
         DESIGN.md §3); the *shape* checks in each section's notes state \
         which qualitative findings hold.\n\n",
    );

    let mut failures = 0usize;
    for (name, f) in experiments {
        eprintln!("running {name} ...");
        let t = std::time::Instant::now();
        let result = f();
        eprintln!("  done in {:.1?}", t.elapsed());
        if let Err(e) = result.write_to(std::path::Path::new("results")) {
            eprintln!("  warning: could not write results/: {e}");
        }
        let violated = result
            .notes
            .iter()
            .filter(|n| n.contains("VIOLATED"))
            .count();
        if violated > 0 {
            failures += violated;
            eprintln!("  !! {violated} shape check(s) VIOLATED");
        }
        let _ = write!(doc, "{}", result.to_markdown());
    }

    let _ = write!(
        doc,
        "---\n\nTotal shape-check violations across all experiments: {failures}\n"
    );
    // The hand-maintained performance history (before/after numbers of
    // perf changes) cannot be regenerated: carry it over verbatim.
    if let Ok(old) = std::fs::read_to_string("EXPERIMENTS.md") {
        if let Some(at) = old.find(PERF_HISTORY) {
            let _ = write!(doc, "\n{}", &old[at..]);
        }
    }
    match std::fs::write("EXPERIMENTS.md", &doc) {
        Ok(()) => eprintln!("wrote EXPERIMENTS.md ({} bytes)", doc.len()),
        Err(e) => eprintln!("could not write EXPERIMENTS.md: {e}"),
    }
    eprintln!("all experiments done in {:.1?}", t0.elapsed());
    if failures > 0 {
        std::process::exit(1);
    }
}
