//! In-tree validator for the Chrome trace-event JSON the exporters emit.
//!
//! Checks the subset of the trace-event format Perfetto and
//! `chrome://tracing` require of our files: a `traceEvents` array whose
//! entries carry `name`, `ph`, `pid`, `tid`, a numeric `ts` (metadata
//! events excepted), and a `dur` for complete (`"X"`) spans. CI runs
//! this over the `repro --telemetry` output so a format regression fails
//! the build instead of silently producing an unloadable trace.

use simbase::json::{self, Json};

/// What a validated trace contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Complete spans (`ph == "X"`).
    pub complete_spans: usize,
    /// Instant events (`ph == "i"`).
    pub instants: usize,
    /// Counter samples (`ph == "C"`).
    pub counters: usize,
    /// Metadata events (`ph == "M"`).
    pub metadata: usize,
}

/// Parses `src` and validates it as a Chrome trace-event file.
pub fn validate_chrome_trace(src: &str) -> Result<TraceSummary, String> {
    let v = json::parse(src).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = v
        .field("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    for (i, e) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {i}: {msg}");
        if e.field("name").and_then(Json::as_str).is_none() {
            return Err(ctx("missing string \"name\""));
        }
        let ph = e
            .field("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string \"ph\""))?;
        for key in ["pid", "tid"] {
            if !matches!(e.field(key), Some(Json::U64(_) | Json::I64(_))) {
                return Err(ctx(&format!("missing integer {key:?}")));
            }
        }
        let has_ts = matches!(e.field("ts"), Some(Json::U64(_) | Json::I64(_) | Json::F64(_)));
        match ph {
            "X" => {
                if !has_ts {
                    return Err(ctx("complete span missing numeric \"ts\""));
                }
                if !matches!(e.field("dur"), Some(Json::U64(_) | Json::I64(_) | Json::F64(_))) {
                    return Err(ctx("complete span missing numeric \"dur\""));
                }
                summary.complete_spans += 1;
            }
            "i" => {
                if !has_ts {
                    return Err(ctx("instant missing numeric \"ts\""));
                }
                summary.instants += 1;
            }
            "C" => {
                if !has_ts {
                    return Err(ctx("counter missing numeric \"ts\""));
                }
                if e.field("args").is_none() {
                    return Err(ctx("counter missing \"args\""));
                }
                summary.counters += 1;
            }
            "M" => summary.metadata += 1,
            other => return Err(ctx(&format!("unknown phase {other:?}"))),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let src = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"sim"}},
            {"name":"s","cat":"c","ph":"X","ts":10,"dur":5,"pid":0,"tid":1},
            {"name":"i","cat":"c","ph":"i","ts":11,"s":"t","pid":0,"tid":1},
            {"name":"v","cat":"c","ph":"C","ts":12,"pid":0,"tid":1,"args":{"value":3}}
        ]}"#;
        let s = validate_chrome_trace(src).expect("valid");
        assert_eq!(
            s,
            TraceSummary {
                events: 4,
                complete_spans: 1,
                instants: 1,
                counters: 1,
                metadata: 1,
            }
        );
    }

    #[test]
    fn rejects_malformed_traces() {
        let cases = [
            ("not json", "not valid JSON"),
            (r#"{"foo":[]}"#, "missing \"traceEvents\""),
            (r#"{"traceEvents":{}}"#, "not an array"),
            (r#"{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}"#, "name"),
            (r#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}]}"#, "dur"),
            (r#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":1,"tid":0}]}"#, "pid"),
            (
                r#"{"traceEvents":[{"name":"a","ph":"Z","ts":0,"pid":0,"tid":0}]}"#,
                "unknown phase",
            ),
            (r#"{"traceEvents":[{"name":"a","ph":"C","ts":0,"pid":0,"tid":0}]}"#, "args"),
        ];
        for (src, needle) in cases {
            let err = validate_chrome_trace(src).expect_err(src);
            assert!(err.contains(needle), "{src}: {err}");
        }
    }
}
