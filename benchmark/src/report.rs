//! Named metrics and the result line the benchmark ends with.

use simbase::json::Json;
use std::collections::BTreeMap;

/// One measured value and its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, with all its digits.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Adds (or replaces) one metric.
pub fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), Metric { value, unit });
}

/// The value of metric `name`, or an error naming it.
pub fn get(m: &Metrics, name: &str) -> Result<f64, String> {
    m.get(name).map(|x| x.value).ok_or_else(|| format!("metric {name} was not measured"))
}

/// Per-name medians over repeated passes that each measured the same
/// metrics.
pub fn medians(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = passes.first() {
        for (name, m) in first {
            let values: Vec<f64> =
                passes.iter().filter_map(|p| p.get(name)).map(|x| x.value).collect();
            put(&mut out, name.clone(), crate::stats::median(&values), m.unit);
        }
    }
    out
}

/// A result line: the `head` fields, then `correct`, `attempted`,
/// `failed`, and every metric as `{"value": v, "unit": u}`.
pub fn result_line(
    head: Vec<(&str, Json)>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, Metric)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { Json::F64(m.value) } else { Json::Null };
            (name.clone(), Json::obj(vec![("value", value), ("unit", Json::Str(m.unit.into()))]))
        })
        .collect();
    let mut fields = head;
    fields.extend([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    Json::obj(fields).render()
}

/// A number field of a parsed JSON object, integers included.
pub fn number(j: &Json, key: &str) -> Option<f64> {
    match j.field(key)? {
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        Json::F64(v) => Some(*v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_in_order() {
        let mut m = Metrics::new();
        put(&mut m, "wall_s", 1.25, "s");
        put(&mut m, "setup_s", 0.5, "s");
        let metrics: Vec<(String, Metric)> = m.into_iter().collect();
        let line = result_line(Vec::new(), true, 3, 0, &metrics);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
        let parsed = simbase::json::parse(&line).unwrap();
        assert_eq!(
            number(parsed.field("metrics").unwrap().field("wall_s").unwrap(), "value"),
            Some(1.25)
        );
        let record = result_line(vec![("workload", Json::Str("modes".into()))], false, 1, 1, &[]);
        assert_eq!(
            record,
            r#"{"workload":"modes","correct":false,"attempted":1,"failed":1,"metrics":{}}"#
        );
    }

    #[test]
    fn medians_are_taken_per_metric() {
        let pass = |v: f64| {
            let mut m = Metrics::new();
            put(&mut m, "x", v, "ns");
            put(&mut m, "y", -v, "ns");
            m
        };
        let m = medians(&[pass(3.0), pass(1.0), pass(2.0)]);
        assert_eq!(get(&m, "x"), Ok(2.0));
        assert_eq!(get(&m, "y"), Ok(-2.0));
        assert!(get(&m, "z").is_err());
    }
}
