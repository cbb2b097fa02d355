//! Machine-readable benchmark reports and the regression gate behind
//! `cargo run -p couplink-bench --bin report`, plus the output-directory
//! helpers shared by every figure binary (one place for the `[out_dir]`
//! argument convention instead of a copy per `src/bin/*.rs`).
//!
//! A [`BenchReport`] is a schema-versioned collection of scenario
//! measurements. Each [`ScenarioMeasure`] separates its values by how they
//! may be compared across runs:
//!
//! * `counters` — deterministic event counts (engine
//!   [`CounterSnapshot`](couplink_metrics::CounterSnapshot) fields, or
//!   figure-harness tallies). Gated **exactly**: any difference from the
//!   committed baseline fails.
//! * `virtual_s` — DES virtual seconds per phase. Deterministic for a fixed
//!   cost model, but allowed a small relative drift
//!   ([`VIRTUAL_TOLERANCE`]) so the baseline survives benign
//!   cost-model recalibration; a real slowdown (more memcpys, more control
//!   traffic) still trips the counters first.
//! * `wall_s` — wall-clock seconds. Machine-dependent, **never gated**,
//!   recorded for eyeballing only.

use couplink::series::{write_csv, Column};
use couplink_metrics::json::{self, Value};
use couplink_metrics::{MetricsSnapshot, Phase, HISTOGRAM_BUCKETS};
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every report; bump on layout changes so
/// the gate refuses to diff incompatible files.
pub const SCHEMA: &str = "couplink-bench/v1";

/// Maximum allowed relative drift of a gated virtual-time field.
pub const VIRTUAL_TOLERANCE: f64 = 0.05;

// ---------------------------------------------------------------------------
// Output-directory helpers shared by the figure binaries.
// ---------------------------------------------------------------------------

/// Resolves the conventional `[out_dir]` first CLI argument (default
/// `results`) and creates the directory.
pub fn out_dir_from_args() -> PathBuf {
    out_dir(std::env::args().nth(1).unwrap_or_else(|| "results".into()))
}

/// Creates `dir` (and parents) and returns it as a path.
pub fn out_dir(dir: impl Into<PathBuf>) -> PathBuf {
    let dir = dir.into();
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

/// Writes one CSV series file into `dir` and returns its path.
pub fn write_series(dir: &Path, file: &str, index_name: &str, columns: &[Column]) -> PathBuf {
    let path = dir.join(file);
    write_csv(&path, index_name, columns).expect("write CSV");
    path
}

/// Writes a text artifact (a rendered trace, a table) into `dir` and
/// returns its path.
pub fn write_text(dir: &Path, file: &str, text: &str) -> PathBuf {
    let path = dir.join(file);
    std::fs::write(&path, text).expect("write text artifact");
    path
}

// ---------------------------------------------------------------------------
// Report schema.
// ---------------------------------------------------------------------------

/// One benchmark scenario's measurements, split by comparison semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMeasure {
    /// Scenario name, unique within a report.
    pub name: String,
    /// Deterministic counts, gated exactly.
    pub counters: Vec<(String, u64)>,
    /// Virtual seconds, gated within a relative tolerance.
    pub virtual_s: Vec<(String, f64)>,
    /// Wall seconds, informational only.
    pub wall_s: Vec<(String, f64)>,
}

impl ScenarioMeasure {
    /// An empty scenario to be filled field by field (figure harnesses).
    pub fn named(name: impl Into<String>) -> Self {
        ScenarioMeasure {
            name: name.into(),
            counters: Vec::new(),
            virtual_s: Vec::new(),
            wall_s: Vec::new(),
        }
    }

    /// Builds a scenario from an engine metrics snapshot: every counter
    /// field, the occupancy and time-to-recovery histograms, and per-phase
    /// virtual/wall times.
    pub fn from_metrics(name: impl Into<String>, snap: &MetricsSnapshot) -> Self {
        let mut counters = snap.counters.fields();
        for (i, &count) in snap.counters.occupancy.iter().enumerate() {
            counters.push((format!("occupancy_b{i:02}"), count));
        }
        for (i, &count) in snap.counters.recovery_ms.iter().enumerate() {
            counters.push((format!("recovery_ms_b{i:02}"), count));
        }
        for (i, &count) in snap.counters.poll_batch.iter().enumerate() {
            counters.push((format!("poll_batch_b{i:02}"), count));
        }
        debug_assert_eq!(
            counters.len(),
            snap.counters.fields().len() + 3 * HISTOGRAM_BUCKETS
        );
        let virtual_s = Phase::ALL
            .iter()
            .map(|&p| (p.as_str().to_string(), snap.timing.virtual_seconds(p)))
            .collect();
        let wall_s = Phase::ALL
            .iter()
            .map(|&p| (p.as_str().to_string(), snap.timing.wall_seconds(p)))
            .collect();
        ScenarioMeasure {
            name: name.into(),
            counters,
            virtual_s,
            wall_s,
        }
    }

    /// Looks up one gated counter (tests and summaries).
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    fn to_json(&self) -> Value {
        let nums_u = |kv: &[(String, u64)]| {
            Value::Object(
                kv.iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            )
        };
        let nums_f = |kv: &[(String, f64)]| {
            Value::Object(
                kv.iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v)))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("name".to_string(), Value::from(self.name.as_str())),
            ("counters".to_string(), nums_u(&self.counters)),
            ("virtual_s".to_string(), nums_f(&self.virtual_s)),
            ("wall_s".to_string(), nums_f(&self.wall_s)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("scenario: missing name")?
            .to_string();
        let section = |key: &str| -> Result<&[(String, Value)], String> {
            v.get(key)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("scenario {name}: missing object {key}"))
        };
        let mut counters = Vec::new();
        for (k, val) in section("counters")? {
            let n = val
                .as_u64()
                .ok_or_else(|| format!("scenario {name}: counter {k} is not a u64"))?;
            counters.push((k.clone(), n));
        }
        let floats = |kv: &[(String, Value)], what: &str| -> Result<Vec<(String, f64)>, String> {
            kv.iter()
                .map(|(k, val)| {
                    val.as_f64()
                        .map(|f| (k.clone(), f))
                        .ok_or_else(|| format!("scenario {name}: {what} {k} is not a number"))
                })
                .collect()
        };
        let virtual_s = floats(section("virtual_s")?, "virtual_s")?;
        let wall_s = floats(section("wall_s")?, "wall_s")?;
        Ok(ScenarioMeasure {
            name,
            counters,
            virtual_s,
            wall_s,
        })
    }
}

/// A schema-versioned benchmark report (`BENCH_couplink.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Problem-size mode: `"smoke"` or `"full"`.
    pub mode: String,
    /// Scenario measurements, in a stable order.
    pub scenarios: Vec<ScenarioMeasure>,
}

impl BenchReport {
    /// Encodes the report (schema stamp included) as a JSON value.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::from(SCHEMA)),
            ("mode".to_string(), Value::from(self.mode.as_str())),
            (
                "scenarios".to_string(),
                Value::Array(
                    self.scenarios
                        .iter()
                        .map(ScenarioMeasure::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes and validates a report; rejects unknown schema versions.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        match v.get("schema").and_then(Value::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("unsupported schema {s:?} (want {SCHEMA:?})")),
            None => return Err("missing schema field".to_string()),
        }
        let mode = v
            .get("mode")
            .and_then(Value::as_str)
            .ok_or("missing mode field")?
            .to_string();
        let scenarios = v
            .get("scenarios")
            .and_then(Value::as_array)
            .ok_or("missing scenarios array")?
            .iter()
            .map(ScenarioMeasure::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != scenarios.len() {
            return Err("duplicate scenario names".to_string());
        }
        Ok(BenchReport { mode, scenarios })
    }

    /// Serializes to the canonical pretty-printed JSON text.
    pub fn to_text(&self) -> String {
        json::emit(&self.to_json())
    }

    /// Parses and validates report text (strict JSON, schema checked).
    pub fn from_text(text: &str) -> Result<Self, String> {
        BenchReport::from_json(&json::parse(text)?)
    }

    /// Loads a report file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchReport::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The named scenario, if present.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioMeasure> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

// ---------------------------------------------------------------------------
// Regression gate.
// ---------------------------------------------------------------------------

/// Compares `current` against the committed `baseline` and returns every
/// gate violation (empty = pass). Counters must match exactly; virtual
/// times within [`VIRTUAL_TOLERANCE`]; wall times are never compared.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.mode != current.mode {
        violations.push(format!(
            "mode mismatch: baseline {:?} vs current {:?}",
            baseline.mode, current.mode
        ));
        return violations;
    }
    for base in &baseline.scenarios {
        let Some(cur) = current.scenario(&base.name) else {
            violations.push(format!(
                "scenario {} missing from current report",
                base.name
            ));
            continue;
        };
        for (key, want) in &base.counters {
            match cur.counter(key) {
                None => violations.push(format!("{}: counter {key} missing", base.name)),
                Some(got) if got != *want => violations.push(format!(
                    "{}: counter {key} changed: baseline {want}, current {got}",
                    base.name
                )),
                Some(_) => {}
            }
        }
        for (key, want) in &base.virtual_s {
            let Some(&(_, got)) = cur.virtual_s.iter().find(|(k, _)| k == key) else {
                violations.push(format!("{}: virtual_s {key} missing", base.name));
                continue;
            };
            // Absolute floor so zero-cost phases don't divide by zero.
            let scale = want.abs().max(1e-9);
            let drift = (got - want).abs() / scale;
            if drift > VIRTUAL_TOLERANCE {
                violations.push(format!(
                    "{}: virtual_s {key} drifted {:.1}% (baseline {want:.6e}, current {got:.6e}, \
                     limit {:.1}%)",
                    base.name,
                    drift * 100.0,
                    VIRTUAL_TOLERANCE * 100.0
                ));
            }
        }
    }
    for cur in &current.scenarios {
        if baseline.scenario(&cur.name).is_none() {
            violations.push(format!(
                "scenario {} not in baseline (regenerate the baseline)",
                cur.name
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_metrics::{CtrlClass, EngineMetrics};

    fn sample() -> BenchReport {
        let mut s = ScenarioMeasure::named("fig4_u4");
        s.counters = vec![("memcpy_paid".into(), 40), ("memcpy_skipped".into(), 2)];
        s.virtual_s = vec![("export".into(), 1.25)];
        s.wall_s = vec![("export".into(), 0.003)];
        BenchReport {
            mode: "smoke".into(),
            scenarios: vec![s],
        }
    }

    #[test]
    fn report_roundtrips_through_json_text() {
        let report = sample();
        let text = report.to_text();
        let back = BenchReport::from_text(&text).expect("valid");
        assert_eq!(back, report);
        assert!(text.contains("\"schema\": \"couplink-bench/v1\""));
    }

    #[test]
    fn wrong_schema_rejected() {
        let text = sample().to_text().replace("couplink-bench/v1", "other/v9");
        let err = BenchReport::from_text(&text).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn gate_passes_identical_and_fails_counter_drift() {
        let base = sample();
        assert!(compare(&base, &base).is_empty());
        let mut cur = sample();
        cur.scenarios[0].counters[0].1 += 1;
        let violations = compare(&base, &cur);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("memcpy_paid"), "{violations:?}");
    }

    #[test]
    fn gate_tolerates_small_virtual_drift_but_not_large() {
        let base = sample();
        let mut cur = sample();
        cur.scenarios[0].virtual_s[0].1 *= 1.04;
        assert!(compare(&base, &cur).is_empty());
        cur.scenarios[0].virtual_s[0].1 = base.scenarios[0].virtual_s[0].1 * 1.25;
        let violations = compare(&base, &cur);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("drifted"), "{violations:?}");
    }

    #[test]
    fn from_metrics_covers_every_counter_and_phase() {
        let m = EngineMetrics::new();
        m.memcpy_paid.inc();
        m.ctrl(CtrlClass::Response).inc();
        m.failovers.inc();
        m.recovery_ms.observe(120);
        let s = ScenarioMeasure::from_metrics("x", &m.snapshot());
        assert_eq!(s.counter("memcpy_paid"), Some(1));
        assert_eq!(s.counter("ctrl_response"), Some(1));
        assert_eq!(s.counter("failovers"), Some(1));
        assert_eq!(
            s.counters
                .iter()
                .filter(|(k, v)| k.starts_with("recovery_ms_b") && *v > 0)
                .count(),
            1
        );
        assert_eq!(s.virtual_s.len(), Phase::ALL.len());
        assert_eq!(
            s.counters.len(),
            m.snapshot().counters.fields().len() + 3 * HISTOGRAM_BUCKETS
        );
    }
}
