//! Output: named metrics with units as an aligned table for people and
//! as the one-line JSON result the driver reads.

use telemetry::json::Obj;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut by_name = Obj::new();
    for m in metrics {
        let value = Obj::new().f64("value", m.value).str("unit", m.unit);
        by_name = by_name.raw(&m.name, &value.finish());
    }
    Obj::new()
        .raw("correct", if failed == 0 { "true" } else { "false" })
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &by_name.finish())
        .finish()
}

/// A `key: value` block as one JSON object of strings.
pub fn config_json(config: &[(&str, String)]) -> String {
    config
        .iter()
        .fold(Obj::new(), |obj, (k, v)| obj.str(k, v))
        .finish()
}

/// Metrics as `name  value unit` rows with the names left-aligned and the
/// values right-aligned on the decimal point.
pub fn table(metrics: &[Metric]) -> String {
    let name_w = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let values: Vec<String> = metrics.iter().map(|m| format!("{:.4}", m.value)).collect();
    let value_w = values.iter().map(String::len).max().unwrap_or(0);
    let mut out = String::new();
    for (m, v) in metrics.iter().zip(&values) {
        out.push_str(&format!("{:<name_w$}  {v:>value_w$} {}\n", m.name, m.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Metric> {
        vec![
            Metric::new("MBps_rs", 165.25, "MB/s"),
            Metric::new("setup_s", 0.8127, "s"),
        ]
    }

    #[test]
    fn result_line_is_valid_json_with_the_four_keys() {
        let line = result_json(12, 0, &sample());
        telemetry::json::validate(&line).expect("valid JSON");
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\
             \"MBps_rs\":{\"value\":165.25,\"unit\":\"MB/s\"},\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        assert!(result_json(12, 1, &[]).starts_with("{\"correct\":false,"));
    }

    #[test]
    fn config_block_escapes_its_values() {
        let line = config_json(&[("seed", "7".into()), ("fs", "a\"b".into())]);
        telemetry::json::validate(&line).expect("valid JSON");
        assert_eq!(line, "{\"seed\":\"7\",\"fs\":\"a\\\"b\"}");
    }

    #[test]
    fn table_aligns_names_and_values() {
        assert_eq!(
            table(&sample()),
            "MBps_rs  165.2500 MB/s\nsetup_s    0.8127 s\n"
        );
    }
}
