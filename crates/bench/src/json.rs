//! Machine-readable benchmark reports (`BENCH_<exp>.json`).
//!
//! The experiment binaries print human tables *and* — when `--json <dir>`
//! is given — write one JSON report per experiment so the CI bench gate
//! (`bench_diff`) can compare runs numerically. This module holds only the
//! report types; the JSON value, parser and renderers are vh-obs's
//! [`vh_obs::Json`], the workspace's one codec.
//!
//! Report shape:
//!
//! ```json
//! {
//!   "experiment": "axes",
//!   "config": { "books": "150", "profile": "quick" },
//!   "rows": [
//!     { "id": "axes/axis/ancestor/vpbn/t1",
//!       "median_ns_per_op": 41.5,
//!       "ops_per_s": 24096385.5,
//!       "extra": { "threads": 1.0, "hits": 300.0 } }
//!   ]
//! }
//! ```
//!
//! Row `id`s are stable slash-separated paths; the gate selects rows by
//! id prefix (e.g. `axes/axis/`), so informational rows (cache demos,
//! scaling sweeps at >1 threads) use prefixes the gate ignores.

use std::path::{Path, PathBuf};
use vh_obs::Json;

/// Row id under which every experiment stores the machine-speed
/// reference measurement (`vh_bench::timing::calibration_ns`). The gate
/// divides per-row ratios by this row's ratio, cancelling uniform
/// host-speed shifts between runs on shared CI machines.
pub const CALIBRATION_ROW: &str = "meta/calibration";

/// One measured series in a report, addressed by a stable slash path.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Stable identifier, e.g. `axes/axis/ancestor/vpbn/t1`. The bench
    /// gate matches rows across runs by this id and selects gated rows
    /// by its prefix.
    pub id: String,
    /// Median wall-clock nanoseconds per operation.
    pub median_ns_per_op: f64,
    /// Operations per second implied by the median (`1e9 / median_ns`).
    pub ops_per_s: f64,
    /// Free-form numeric annotations (thread count, hit counts, sizes).
    pub extra: Vec<(String, f64)>,
}

impl BenchRow {
    /// Builds a row from a median ns/op measurement.
    pub fn new(id: impl Into<String>, median_ns_per_op: f64) -> Self {
        BenchRow {
            id: id.into(),
            median_ns_per_op,
            ops_per_s: if median_ns_per_op > 0.0 {
                1e9 / median_ns_per_op
            } else {
                0.0
            },
            extra: Vec::new(),
        }
    }

    /// Attaches one numeric annotation (builder style).
    pub fn with(mut self, key: impl Into<String>, value: f64) -> Self {
        self.extra.push((key.into(), value));
        self
    }
}

/// A full experiment report: configuration echo plus measured rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Experiment name (`axes`, `twig`, `sjoin`, …) — also the filename
    /// stem: `BENCH_<experiment>.json`.
    pub experiment: String,
    /// Configuration echo (corpus size, profile, scaling set) as strings.
    pub config: Vec<(String, String)>,
    /// Measured rows in emission order.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// Starts an empty report for `experiment`.
    pub fn new(experiment: impl Into<String>) -> Self {
        BenchReport {
            experiment: experiment.into(),
            config: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Records one configuration key/value.
    pub fn config(&mut self, key: impl Into<String>, value: impl ToString) {
        self.config.push((key.into(), value.to_string()));
    }

    /// Appends a measured row.
    pub fn push(&mut self, row: BenchRow) {
        self.rows.push(row);
    }

    /// Finds a row by exact id.
    pub fn row(&self, id: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.id == id)
    }

    /// The report filename for this experiment (`BENCH_<exp>.json`).
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.experiment)
    }

    /// Converts to the JSON document shape.
    pub fn to_json(&self) -> Json {
        let config = self
            .config
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("id".to_string(), Json::Str(r.id.clone())),
                    (
                        "median_ns_per_op".to_string(),
                        Json::Num(r.median_ns_per_op),
                    ),
                    ("ops_per_s".to_string(), Json::Num(r.ops_per_s)),
                ];
                if !r.extra.is_empty() {
                    fields.push((
                        "extra".to_string(),
                        Json::Obj(
                            r.extra
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("config".to_string(), Json::Obj(config)),
            ("rows".to_string(), Json::Arr(rows)),
        ])
    }

    /// Reconstructs a report from parsed JSON.
    pub fn from_json(value: &Json) -> Result<BenchReport, String> {
        let experiment = value
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("report is missing 'experiment'")?
            .to_string();
        let mut report = BenchReport::new(experiment);
        if let Some(Json::Obj(fields)) = value.get("config") {
            for (k, v) in fields {
                report
                    .config
                    .push((k.clone(), v.as_str().unwrap_or_default().to_string()));
            }
        }
        for row in value.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
            let id = row
                .get("id")
                .and_then(Json::as_str)
                .ok_or("row is missing 'id'")?
                .to_string();
            let median = row
                .get("median_ns_per_op")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("row '{id}' is missing 'median_ns_per_op'"))?;
            let mut bench_row = BenchRow::new(id, median);
            if let Some(ops) = row.get("ops_per_s").and_then(Json::as_num) {
                bench_row.ops_per_s = ops;
            }
            if let Some(Json::Obj(extra)) = row.get("extra") {
                for (k, v) in extra {
                    bench_row.extra.push((k.clone(), v.as_num().unwrap_or(0.0)));
                }
            }
            report.rows.push(bench_row);
        }
        Ok(report)
    }

    /// Writes `BENCH_<exp>.json` into `dir` (created if missing); returns
    /// the path written.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.filename());
        std::fs::write(&path, self.to_json().render())?;
        Ok(path)
    }

    /// Reads a report back from a `BENCH_*.json` file.
    pub fn read_from(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchReport::from_json(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let mut r = BenchReport::new("axes");
        r.config("books", 150);
        r.config("profile", "quick");
        r.push(BenchRow::new("axes/axis/ancestor/vpbn/t1", 41.5).with("threads", 1.0));
        r.push(BenchRow::new("cache/open/warm", 1200.0));
        let back = BenchReport::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.filename(), "BENCH_axes.json");
        assert!(back.row("cache/open/warm").is_some());
        assert!(back.row("missing").is_none());
    }

    #[test]
    fn ops_per_s_is_derived_from_median() {
        let row = BenchRow::new("x", 100.0);
        assert!((row.ops_per_s - 1e7).abs() < 1e-6);
        assert_eq!(BenchRow::new("x", 0.0).ops_per_s, 0.0);
    }

    #[test]
    fn committed_baselines_re_render_byte_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let value = Json::parse(&text).unwrap();
            assert_eq!(value.render(), text, "{name}: Json re-render");
            let report = BenchReport::from_json(&value).unwrap();
            assert_eq!(report.to_json().render(), text, "{name}: report re-render");
            seen += 1;
        }
        assert_eq!(seen, 7, "every committed baseline is checked");
    }

    #[test]
    fn write_and_read_files() {
        let dir = std::env::temp_dir().join("vh_bench_json_test");
        let mut r = BenchReport::new("unit");
        r.push(BenchRow::new("unit/row", 5.0));
        let path = r.write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let back = BenchReport::read_from(&path).unwrap();
        assert_eq!(back, r);
        std::fs::remove_dir_all(&dir).ok();
    }
}
