//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <served-mix|view-query|edit-stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures it closed-loop
//! for the given seconds, checks every answer, and prints one JSON object
//! as the last line of stdout: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Exits 1 when any op failed or
//! any check did not hold, 2 on a usage error. `README.md` beside this
//! package explains the workloads and metrics.

mod exec;
mod gen;
mod runs;

use std::process::ExitCode;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServedMix,
    ViewQuery,
    EditStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "served-mix" => Some(Workload::ServedMix),
            "view-query" => Some(Workload::ViewQuery),
            "edit-stream" => Some(Workload::EditStream),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedMix => "served-mix",
            Workload::ViewQuery => "view-query",
            Workload::EditStream => "edit-stream",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <served-mix|view-query|edit-stream> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].iter().position(|v| *v == value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload must name a workload")?,
        seed: seed.ok_or("--seed must be a whole number")?,
        seconds: seconds.ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace must be 0 or 1")? == 1,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match runs::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", bad.name);
        return ExitCode::from(1);
    }
    println!("{}", json(&outcome));
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} ops failed or a check did not hold",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}
