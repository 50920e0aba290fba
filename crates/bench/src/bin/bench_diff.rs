//! `bench_diff` — the CI benchmark-regression gate.
//!
//! Compares every `BENCH_*.json` in a baseline directory against the
//! matching report in a current-run directory:
//!
//! ```text
//! bench_diff <baseline-dir> <current-dir> [--threshold 0.15]
//!            [--gate-prefix axes/axis/]... [--json <path>]
//! ```
//!
//! Rows are matched by id. A gated row (id starts with a `--gate-prefix`;
//! defaults in [`DEFAULT_GATE_PREFIXES`] — the axis/twig hot paths, the
//! observability overhead, and the edit subsystem's apply and
//! cache-maintenance rows) whose median ns/op regresses by more
//! than the threshold — or which disappears from the current run — fails
//! the gate (exit 1). Everything else is logged but passes. A baseline
//! file with no counterpart in the current directory fails iff it
//! contains gated rows. When both reports carry the `meta/calibration`
//! reference row, ratios are first normalized by the machine-speed
//! factor (see `vh_bench::gate::machine_factor`) so uniform
//! host-contention swings on shared runners don't fail every row at
//! once.
//!
//! `--json <path>` additionally writes every finding as a JSON document,
//! including the absolute noise floor and each row's **pre-floor**
//! normalized delta — so downstream consumers (the bench-history trend)
//! can tell a row the floor absorbed from one that genuinely sat still.
//!
//! Exit codes: 0 = pass, 1 = regression, 2 = usage, 3 = I/O or malformed
//! report.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vh_bench::gate::{
    compare_reports, machine_factor, Finding, DEFAULT_GATE_PREFIXES, DEFAULT_THRESHOLD,
    NOISE_FLOOR_NS,
};
use vh_bench::json::BenchReport;
use vh_obs::Json;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err((msg, code)) => {
            eprintln!("bench_diff: {msg}");
            if code == 2 {
                eprintln!("{USAGE}");
            }
            ExitCode::from(code)
        }
    }
}

const USAGE: &str = "usage:
  bench_diff <baseline-dir> <current-dir> [--threshold 0.15]
             [--gate-prefix <id-prefix>]... [--json <path>]

Compares BENCH_*.json reports; exits 1 when a gated row (default
prefixes: axes/axis/, twig/, obs/run/, update/apply, update/cache_)
regresses beyond the threshold or is missing from the current run.
--json writes the findings (including the noise floor and pre-floor
deltas) as a JSON document.";

fn run() -> Result<bool, (String, u8)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut prefixes: Vec<String> = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = it
                    .next()
                    .ok_or(("--threshold: missing value".to_string(), 2))?;
                threshold = v
                    .parse()
                    .map_err(|_| (format!("--threshold: bad fraction '{v}'"), 2))?;
                if !(0.0..10.0).contains(&threshold) {
                    return Err((format!("--threshold: '{v}' out of range [0, 10)"), 2));
                }
            }
            "--gate-prefix" => {
                let v = it
                    .next()
                    .ok_or(("--gate-prefix: missing value".to_string(), 2))?;
                prefixes.push(v.clone());
            }
            "--json" => {
                json_out = Some(PathBuf::from(
                    it.next().ok_or(("--json: missing value".to_string(), 2))?,
                ));
            }
            other if other.starts_with("--") => {
                return Err((format!("unknown flag '{other}'"), 2));
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [baseline_dir, current_dir] = dirs.as_slice() else {
        return Err((
            "expected exactly <baseline-dir> <current-dir>".to_string(),
            2,
        ));
    };
    let prefixes: Vec<&str> = if prefixes.is_empty() {
        DEFAULT_GATE_PREFIXES.to_vec()
    } else {
        prefixes.iter().map(String::as_str).collect()
    };

    let baseline_files = report_files(baseline_dir)?;
    if baseline_files.is_empty() {
        return Err((format!("no BENCH_*.json in {}", baseline_dir.display()), 3));
    }

    let mut failures = 0usize;
    let mut compared = 0usize;
    let mut per_report: Vec<(String, Option<f64>, Vec<Finding>)> = Vec::new();
    for path in &baseline_files {
        let baseline = BenchReport::read_from(path).map_err(|e| (e, 3))?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let current_path = current_dir.join(&name);
        // A missing current report gates exactly like a report whose rows
        // all vanished: only its gated rows count as failures.
        let current = if current_path.exists() {
            BenchReport::read_from(&current_path).map_err(|e| (e, 3))?
        } else {
            println!("{name}: missing from current run");
            BenchReport::new(baseline.experiment.clone())
        };
        let findings = compare_reports(&baseline, &current, threshold, &prefixes);
        println!(
            "== {name} ({} baseline rows, threshold {:.0}%)",
            baseline.rows.len(),
            threshold * 100.0
        );
        match machine_factor(&baseline, &current) {
            Some(f) => println!("  machine-speed factor x{f:.3} (ratios normalized by it)"),
            None => println!("  no calibration row on both sides: raw ratios"),
        }
        for f in &findings {
            println!("  {}", f.render());
        }
        failures += findings.iter().filter(|f| f.fails()).count();
        compared += findings.len();
        per_report.push((name, machine_factor(&baseline, &current), findings));
    }
    println!(
        "bench gate: {compared} rows compared, {failures} gated failure(s), gated prefixes {prefixes:?}"
    );
    if let Some(path) = &json_out {
        let doc = findings_json(&per_report, threshold, &prefixes);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| (format!("{}: {e}", dir.display()), 3))?;
        }
        std::fs::write(path, doc.render()).map_err(|e| (format!("{}: {e}", path.display()), 3))?;
    }
    Ok(failures == 0)
}

/// The `--json` document: gate parameters (threshold, prefixes, and the
/// absolute noise floor) plus every finding with its pre-floor delta and
/// whether the floor kept it `Ok`.
fn findings_json(
    per_report: &[(String, Option<f64>, Vec<Finding>)],
    threshold: f64,
    prefixes: &[&str],
) -> Json {
    let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let reports = per_report
        .iter()
        .map(|(name, factor, findings)| {
            let rows = findings
                .iter()
                .map(|f| {
                    Json::Obj(vec![
                        ("id".to_string(), Json::Str(f.id.clone())),
                        ("baseline_ns".to_string(), opt_num(f.baseline_ns)),
                        ("current_ns".to_string(), opt_num(f.current_ns)),
                        ("ratio".to_string(), opt_num(f.ratio)),
                        ("delta_ns".to_string(), opt_num(f.delta_ns)),
                        ("floored".to_string(), Json::Bool(f.floored)),
                        ("verdict".to_string(), Json::Str(format!("{:?}", f.verdict))),
                        ("fails".to_string(), Json::Bool(f.fails())),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("report".to_string(), Json::Str(name.clone())),
                ("machine_factor".to_string(), opt_num(*factor)),
                ("findings".to_string(), Json::Arr(rows)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("threshold".to_string(), Json::Num(threshold)),
        ("noise_floor_ns".to_string(), Json::Num(NOISE_FLOOR_NS)),
        (
            "gate_prefixes".to_string(),
            Json::Arr(prefixes.iter().map(|p| Json::Str(p.to_string())).collect()),
        ),
        ("reports".to_string(), Json::Arr(reports)),
    ])
}

/// All `BENCH_*.json` files in `dir`, sorted by name for stable output.
fn report_files(dir: &Path) -> Result<Vec<PathBuf>, (String, u8)> {
    let entries = std::fs::read_dir(dir).map_err(|e| (format!("{}: {e}", dir.display()), 3))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}
