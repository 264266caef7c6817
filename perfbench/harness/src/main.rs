//! perfbench: the repository benchmark.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds`, checks its output, and prints
//! one JSON result line last on stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! holds sample counts and other context. Exits 1 when an output check
//! fails, an operation fails, or the workload panics. See
//! `perfbench/README.md` for the workloads and every metric.

mod alloc;
mod engine;
mod framework;
mod inputs;
mod layers;
mod report;
mod serve;
mod sortcount;
mod span;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["engine-cloudlog", "framework-androidlog"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=600).contains(&s) {
                        return Err("--seconds must be 1..=600".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".to_string()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} ({})",
                WORKLOADS.join(" | ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// A scratch directory for this run, inside `perfbench/out`.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        PathBuf::from("perfbench/out").join(format!(
            "{}-{}-{}-{tag}",
            self.workload,
            self.seed,
            std::process::id()
        ))
    }

    /// Where the traced run writes its Chrome trace.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from("perfbench/out").join(format!("trace-{}-{}.json", self.workload, self.seed))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Benchmark threads charge their own work to `harness`; threads that
    // never enter a layer (the server's) stay `unattributed`.
    alloc::enter(alloc::Layer::Harness);
    let outcome = std::panic::catch_unwind(|| {
        let mut report = Report::new();
        match args.workload.as_str() {
            "engine-cloudlog" => engine::run(&args, &mut report),
            _ => framework::run(&args, &mut report),
        }
        if !args.trace {
            let ok = report.attempted.saturating_sub(report.failed) as f64;
            report.metric("success_rate", ok / report.attempted.max(1) as f64, "ratio");
        }
        report
    });
    let report = match outcome {
        Ok(r) => r,
        Err(_) => {
            eprintln!(
                "perfbench: the {} workload panicked; the run failed",
                args.workload
            );
            std::process::exit(1);
        }
    };
    for m in &report.mismatches {
        eprintln!("perfbench: output check failed: {m}");
    }
    let finite = report.metrics.iter().all(|(_, v, _)| v.is_finite());
    let passed = report.correct && report.failed == 0 && report.attempted > 0 && finite;
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    if !passed {
        eprintln!(
            "perfbench: run failed (correct={}, attempted={}, failed={}, finite={finite})",
            report.correct, report.attempted, report.failed
        );
        std::process::exit(1);
    }
}
