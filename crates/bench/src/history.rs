//! Per-commit performance trajectory (`BENCH_history.jsonl`).
//!
//! The bench gate (`gate.rs`) compares one run against one committed
//! baseline — it sees a single PR at a time, so a slow leak of 3% per PR
//! passes every gate and still costs 30% over ten PRs. The history layer
//! closes that hole: every CI run appends one **record** per commit to a
//! JSONL artifact, each record carrying every `BENCH_*.json` row
//! **machine-normalized** by the run's `meta/calibration` spin-row (see
//! [`crate::json::CALIBRATION_ROW`]). Normalized medians are comparable
//! across runners of different speeds, so the trajectory is a property of
//! the code, not of runner roulette.
//!
//! Record shape (one line of JSONL):
//!
//! ```json
//! {"commit":"abc1234","timestamp":"1723000000","calibration_ns":1000.0,
//!  "rows":[{"id":"axes:axes/axis/self/pbn/t1","median_ns_per_op":4.1,
//!           "normalized":0.0041}]}
//! ```
//!
//! Row ids are namespaced `<experiment>:<row-id>` because the same row id
//! (the calibration row above all) appears in several reports. The trend
//! pass ([`analyze`]) walks the last `window` records per row and flags a
//! **drift**: normalized median moved more than `drift` (default 10%)
//! between the oldest and newest sample in the window **and** the move
//! denormalizes to more than [`NOISE_FLOOR_NS`] on the newest machine —
//! the same absolute floor the gate applies, so single-digit-ns jitter
//! doesn't page anyone. Only rows under the gate prefixes fail the check;
//! everything else is reported informationally.

use crate::gate::NOISE_FLOOR_NS;
use crate::json::{BenchReport, CALIBRATION_ROW};
use crate::report::Table;
use std::path::Path;
use vh_obs::Json;

/// Default trend window: drift is measured across the last N records.
pub const DEFAULT_WINDOW: usize = 10;

/// Default drift threshold (10%) across the window.
pub const DEFAULT_DRIFT: f64 = 0.10;

/// One normalized measurement inside a [`HistoryRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// Namespaced id: `<experiment>:<row-id>`.
    pub id: String,
    /// Raw median ns/op as measured on the recording machine.
    pub median_ns_per_op: f64,
    /// `median_ns_per_op / calibration_ns` — the machine-free form the
    /// trend compares across commits.
    pub normalized: f64,
}

/// One commit's worth of normalized bench rows.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Git commit id (or any stable run label).
    pub commit: String,
    /// Opaque timestamp string (unix seconds in CI; never interpreted).
    pub timestamp: String,
    /// The run's `meta/calibration` median — the normalization divisor.
    pub calibration_ns: f64,
    /// Every report row of the run, namespaced and normalized.
    pub rows: Vec<HistoryRow>,
}

impl HistoryRecord {
    /// Builds one record from all reports of a run. Fails when no report
    /// carries a positive [`CALIBRATION_ROW`] — an unnormalized record
    /// would poison every later trend comparison.
    pub fn from_reports(
        commit: impl Into<String>,
        timestamp: impl Into<String>,
        reports: &[BenchReport],
    ) -> Result<HistoryRecord, String> {
        let calibration_ns = reports
            .iter()
            .find_map(|r| r.row(CALIBRATION_ROW))
            .map(|r| r.median_ns_per_op)
            .filter(|&ns| ns > 0.0)
            .ok_or("no report carries a positive meta/calibration row")?;
        let mut rows = Vec::new();
        for report in reports {
            for row in &report.rows {
                rows.push(HistoryRow {
                    id: format!("{}:{}", report.experiment, row.id),
                    median_ns_per_op: row.median_ns_per_op,
                    normalized: row.median_ns_per_op / calibration_ns,
                });
            }
        }
        Ok(HistoryRecord {
            commit: commit.into(),
            timestamp: timestamp.into(),
            calibration_ns,
            rows,
        })
    }

    /// Converts to the JSON object shape.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("id".to_string(), Json::Str(r.id.clone())),
                    (
                        "median_ns_per_op".to_string(),
                        Json::Num(r.median_ns_per_op),
                    ),
                    ("normalized".to_string(), Json::Num(r.normalized)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("commit".to_string(), Json::Str(self.commit.clone())),
            ("timestamp".to_string(), Json::Str(self.timestamp.clone())),
            ("calibration_ns".to_string(), Json::Num(self.calibration_ns)),
            ("rows".to_string(), Json::Arr(rows)),
        ])
    }

    /// Reconstructs a record from parsed JSON.
    pub fn from_json(value: &Json) -> Result<HistoryRecord, String> {
        let commit = value
            .get("commit")
            .and_then(Json::as_str)
            .ok_or("record is missing 'commit'")?
            .to_string();
        let timestamp = value
            .get("timestamp")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let calibration_ns = value
            .get("calibration_ns")
            .and_then(Json::as_num)
            .ok_or("record is missing 'calibration_ns'")?;
        let mut rows = Vec::new();
        for row in value.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
            let id = row
                .get("id")
                .and_then(Json::as_str)
                .ok_or("history row is missing 'id'")?
                .to_string();
            let median = row
                .get("median_ns_per_op")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("history row '{id}' is missing 'median_ns_per_op'"))?;
            let normalized = row
                .get("normalized")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("history row '{id}' is missing 'normalized'"))?;
            rows.push(HistoryRow {
                id,
                median_ns_per_op: median,
                normalized,
            });
        }
        Ok(HistoryRecord {
            commit,
            timestamp,
            calibration_ns,
            rows,
        })
    }

    /// Appends this record as one JSONL line (file created if missing).
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&self.to_json().render_compact());
        text.push('\n');
        std::fs::write(path, text)
    }
}

/// Reads a full JSONL history file, oldest record first. Blank lines are
/// skipped; a malformed line is an error (a silently dropped record would
/// shift every later drift window).
pub fn read_history(path: &Path) -> Result<Vec<HistoryRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_history(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses JSONL text into records (see [`read_history`]).
pub fn parse_history(text: &str) -> Result<Vec<HistoryRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        records.push(HistoryRecord::from_json(&value).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(records)
}

/// One row's trajectory across the analysis window.
#[derive(Debug, Clone, PartialEq)]
pub struct Trend {
    /// Namespaced row id (`<experiment>:<row-id>`).
    pub id: String,
    /// Normalized median at the oldest record in the window carrying
    /// this row.
    pub first_normalized: f64,
    /// Normalized median at the newest record carrying this row.
    pub last_normalized: f64,
    /// `last / first` — the drift ratio across the window.
    pub ratio: f64,
    /// The drift denormalized to ns on the **newest** machine, so the
    /// absolute noise floor means the same thing it means in the gate.
    pub delta_ns: f64,
    /// Number of window records carrying this row.
    pub samples: usize,
    /// True when the row is under a gated prefix (only these fail).
    pub gated: bool,
    /// True when the drift exceeds the threshold and the noise floor.
    pub drifting: bool,
}

impl Trend {
    /// True when this trend fails the history check.
    pub fn fails(&self) -> bool {
        self.gated && self.drifting
    }
}

/// Walks the last `window` records and computes one [`Trend`] per row id,
/// in first-seen order. A row drifts when `last/first > 1 + drift` and
/// the denormalized move clears [`NOISE_FLOOR_NS`]. Rows need at least
/// two samples to trend; the calibration rows (`…:meta/calibration`) are
/// excluded — they *are* the normalization, their raw swing is machine
/// speed by definition.
pub fn analyze(
    history: &[HistoryRecord],
    window: usize,
    drift: f64,
    gate_prefixes: &[&str],
) -> Vec<Trend> {
    let tail = &history[history.len().saturating_sub(window.max(2))..];
    let mut order: Vec<String> = Vec::new();
    for rec in tail {
        for row in &rec.rows {
            if row.id.ends_with(&format!(":{CALIBRATION_ROW}")) {
                continue;
            }
            if !order.contains(&row.id) {
                order.push(row.id.clone());
            }
        }
    }
    let mut trends = Vec::new();
    for id in &order {
        let samples: Vec<(&HistoryRecord, &HistoryRow)> = tail
            .iter()
            .flat_map(|rec| {
                rec.rows
                    .iter()
                    .filter(|r| &r.id == id)
                    .map(move |r| (rec, r))
            })
            .collect();
        let (Some(&(_, first)), Some(&(last_rec, last))) = (samples.first(), samples.last()) else {
            continue;
        };
        let ratio = if first.normalized > 0.0 {
            last.normalized / first.normalized
        } else if last.normalized > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let delta_ns = (last.normalized - first.normalized) * last_rec.calibration_ns;
        // The row id carries its experiment namespace; gate prefixes are
        // written against the raw row id, so match after the colon.
        let raw_id = id.split_once(':').map_or(id.as_str(), |(_, r)| r);
        let gated = gate_prefixes.iter().any(|p| raw_id.starts_with(p));
        let drifting = samples.len() >= 2 && ratio > 1.0 + drift && delta_ns > NOISE_FLOOR_NS;
        trends.push(Trend {
            id: id.clone(),
            first_normalized: first.normalized,
            last_normalized: last.normalized,
            ratio,
            delta_ns,
            samples: samples.len(),
            gated,
            drifting,
        });
    }
    trends
}

/// Renders the trend report as an aligned text table (stdout form).
pub fn render_text(trends: &[Trend], window: usize, drift: f64) -> String {
    let mut t = Table::new(
        format!(
            "bench history trend (window {window}, drift >{:.0}%)",
            drift * 100.0
        ),
        &[
            "row",
            "norm first",
            "norm last",
            "ratio",
            "delta_ns",
            "n",
            "verdict",
        ],
    );
    for tr in trends {
        t.row(&[
            tr.id.clone(),
            format!("{:.6}", tr.first_normalized),
            format!("{:.6}", tr.last_normalized),
            format!("x{:.3}", tr.ratio),
            format!("{:+.1}", tr.delta_ns),
            tr.samples.to_string(),
            match (tr.drifting, tr.gated) {
                (false, _) => "ok".to_string(),
                (true, true) => "DRIFT (gated)".to_string(),
                (true, false) => "drift (ungated)".to_string(),
            },
        ]);
    }
    t.render()
}

/// Renders the trend report as a markdown table for `$GITHUB_STEP_SUMMARY`.
pub fn render_markdown(trends: &[Trend], window: usize, drift: f64) -> String {
    let mut t = Table::new(
        format!(
            "Bench history trend — window {window}, drift >{:.0}%",
            drift * 100.0
        ),
        &[
            "row",
            "norm first",
            "norm last",
            "ratio",
            "delta ns",
            "samples",
            "verdict",
        ],
    );
    for tr in trends {
        t.row(&[
            format!("`{}`", tr.id),
            format!("{:.6}", tr.first_normalized),
            format!("{:.6}", tr.last_normalized),
            format!("x{:.3}", tr.ratio),
            format!("{:+.1}", tr.delta_ns),
            tr.samples.to_string(),
            match (tr.drifting, tr.gated) {
                (false, _) => "ok".to_string(),
                (true, true) => "🔴 drift (gated)".to_string(),
                (true, false) => "🟡 drift (ungated)".to_string(),
            },
        ]);
    }
    t.render_markdown()
}

/// Renders the trend report as a JSON document (artifact form).
pub fn render_json(trends: &[Trend], window: usize, drift: f64) -> Json {
    let rows = trends
        .iter()
        .map(|tr| {
            Json::Obj(vec![
                ("id".to_string(), Json::Str(tr.id.clone())),
                (
                    "first_normalized".to_string(),
                    Json::Num(tr.first_normalized),
                ),
                ("last_normalized".to_string(), Json::Num(tr.last_normalized)),
                ("ratio".to_string(), Json::Num(tr.ratio)),
                ("delta_ns".to_string(), Json::Num(tr.delta_ns)),
                ("samples".to_string(), Json::Num(tr.samples as f64)),
                ("gated".to_string(), Json::Bool(tr.gated)),
                ("drifting".to_string(), Json::Bool(tr.drifting)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("window".to_string(), Json::Num(window as f64)),
        ("drift_threshold".to_string(), Json::Num(drift)),
        ("noise_floor_ns".to_string(), Json::Num(NOISE_FLOOR_NS)),
        ("trends".to_string(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::BenchRow;

    fn report(exp: &str, rows: &[(&str, f64)]) -> BenchReport {
        let mut r = BenchReport::new(exp);
        for (id, ns) in rows {
            r.push(BenchRow::new(*id, *ns));
        }
        r
    }

    fn record(commit: &str, cal: f64, rows: &[(&str, f64)]) -> HistoryRecord {
        let mut all = vec![(CALIBRATION_ROW, cal)];
        all.extend_from_slice(rows);
        HistoryRecord::from_reports(commit, "0", &[report("axes", &all)]).unwrap()
    }

    #[test]
    fn records_normalize_by_the_calibration_row() {
        let rec = record("c1", 1000.0, &[("axes/axis/self/pbn/t1", 50.0)]);
        assert_eq!(rec.calibration_ns, 1000.0);
        let row = rec
            .rows
            .iter()
            .find(|r| r.id == "axes:axes/axis/self/pbn/t1")
            .unwrap();
        assert!((row.normalized - 0.05).abs() < 1e-12);
    }

    #[test]
    fn missing_calibration_is_an_error() {
        let err = HistoryRecord::from_reports("c", "0", &[report("axes", &[("axes/a", 1.0)])]);
        assert!(err.is_err());
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let a = record("c1", 1000.0, &[("axes/axis/self/pbn/t1", 50.0)]);
        let b = record("c2", 2000.0, &[("axes/axis/self/pbn/t1", 100.0)]);
        let text = format!(
            "{}\n{}\n",
            a.to_json().render_compact(),
            b.to_json().render_compact()
        );
        let back = parse_history(&text).unwrap();
        assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn append_creates_and_extends_the_file() {
        let dir = std::env::temp_dir().join("vh_bench_history_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("BENCH_history.jsonl");
        let a = record("c1", 1000.0, &[("axes/axis/self/pbn/t1", 50.0)]);
        let b = record("c2", 1000.0, &[("axes/axis/self/pbn/t1", 51.0)]);
        a.append_to(&path).unwrap();
        b.append_to(&path).unwrap();
        let back = read_history(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].commit, "c1");
        assert_eq!(back[1].commit, "c2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flat_history_has_no_drift() {
        let hist: Vec<HistoryRecord> = (0..5)
            .map(|i| record(&format!("c{i}"), 1000.0, &[("axes/axis/self/pbn/t1", 50.0)]))
            .collect();
        let trends = analyze(&hist, DEFAULT_WINDOW, DEFAULT_DRIFT, &["axes/axis/"]);
        assert_eq!(trends.len(), 1);
        assert!(!trends[0].drifting);
        assert!(!trends[0].fails());
    }

    #[test]
    fn machine_speed_swings_do_not_drift() {
        // The machine got 2x slower (calibration and row move together):
        // normalized medians are flat, no drift.
        let hist = vec![
            record("c1", 1000.0, &[("axes/axis/self/pbn/t1", 50.0)]),
            record("c2", 2000.0, &[("axes/axis/self/pbn/t1", 100.0)]),
        ];
        let trends = analyze(&hist, DEFAULT_WINDOW, DEFAULT_DRIFT, &["axes/axis/"]);
        assert!((trends[0].ratio - 1.0).abs() < 1e-9);
        assert!(!trends[0].drifting);
    }

    #[test]
    fn gated_drift_fails_ungated_drift_reports() {
        let hist = vec![
            record("c1", 1000.0, &[("axes/axis/x", 50.0), ("scaling/x", 50.0)]),
            record("c2", 1000.0, &[("axes/axis/x", 60.0), ("scaling/x", 60.0)]),
        ];
        let trends = analyze(&hist, DEFAULT_WINDOW, DEFAULT_DRIFT, &["axes/axis/"]);
        let gated = trends
            .iter()
            .find(|t| t.id.contains("axes/axis/x"))
            .unwrap();
        let ungated = trends.iter().find(|t| t.id.contains("scaling/x")).unwrap();
        assert!(gated.drifting && gated.fails());
        assert!(ungated.drifting && !ungated.fails());
    }

    #[test]
    fn sub_floor_drift_is_jitter_not_drift() {
        // 1.5 -> 2.5 ns is a 1.67x ratio but a 1 ns move: under the floor.
        let hist = vec![
            record("c1", 1000.0, &[("axes/axis/x", 1.5)]),
            record("c2", 1000.0, &[("axes/axis/x", 2.5)]),
        ];
        let trends = analyze(&hist, DEFAULT_WINDOW, DEFAULT_DRIFT, &["axes/axis/"]);
        assert!(!trends[0].drifting);
    }

    #[test]
    fn drift_is_measured_inside_the_window_only() {
        // Old regression outside the window, flat since: no drift.
        let mut hist = vec![record("old", 1000.0, &[("axes/axis/x", 50.0)])];
        for i in 0..DEFAULT_WINDOW {
            hist.push(record(&format!("c{i}"), 1000.0, &[("axes/axis/x", 70.0)]));
        }
        let trends = analyze(&hist, DEFAULT_WINDOW, DEFAULT_DRIFT, &["axes/axis/"]);
        assert!(!trends[0].drifting, "regression predates the window");
    }

    #[test]
    fn single_sample_rows_never_drift() {
        let hist = vec![record("c1", 1000.0, &[("axes/axis/x", 50.0)])];
        let trends = analyze(&hist, DEFAULT_WINDOW, DEFAULT_DRIFT, &["axes/axis/"]);
        assert_eq!(trends[0].samples, 1);
        assert!(!trends[0].drifting);
    }

    #[test]
    fn calibration_rows_are_excluded_from_trends() {
        let hist = vec![
            record("c1", 1000.0, &[("axes/axis/x", 50.0)]),
            record("c2", 4000.0, &[("axes/axis/x", 200.0)]),
        ];
        let trends = analyze(&hist, DEFAULT_WINDOW, DEFAULT_DRIFT, &["axes/axis/"]);
        assert!(trends.iter().all(|t| !t.id.contains("meta/calibration")));
    }

    #[test]
    fn reports_render_in_all_three_forms() {
        let hist = vec![
            record("c1", 1000.0, &[("axes/axis/x", 50.0)]),
            record("c2", 1000.0, &[("axes/axis/x", 60.0)]),
        ];
        let trends = analyze(&hist, DEFAULT_WINDOW, DEFAULT_DRIFT, &["axes/axis/"]);
        let text = render_text(&trends, DEFAULT_WINDOW, DEFAULT_DRIFT);
        assert!(text.contains("axes:axes/axis/x"));
        assert!(text.contains("DRIFT (gated)"));
        let md = render_markdown(&trends, DEFAULT_WINDOW, DEFAULT_DRIFT);
        assert!(md.contains("| --- |"));
        assert!(md.contains("drift (gated)"));
        let json = render_json(&trends, DEFAULT_WINDOW, DEFAULT_DRIFT);
        assert_eq!(
            json.get("noise_floor_ns").and_then(Json::as_num),
            Some(NOISE_FLOOR_NS)
        );
        let first = &json.get("trends").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(first.get("drifting"), Some(&Json::Bool(true)));
    }
}
