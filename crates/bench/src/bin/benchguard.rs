//! `benchguard` — fails CI when a benchmark's `min_ns` regresses past a
//! threshold against a committed baseline.
//!
//! ```text
//! benchguard <baseline.json> <current.json> [--max-regress PCT]
//! ```
//!
//! Both files are simkit bench JSON-lines (`{"name":...,"min_ns":...}`
//! per line, as written under `SIMKIT_BENCH_DIR`). Every benchmark named
//! in the baseline must appear in the current file; if the current file
//! holds several lines for one name (the harness appends across runs),
//! the *last* line wins. A benchmark regresses when
//!
//! ```text
//! current.min_ns > baseline.min_ns * (1 + PCT/100)
//! ```
//!
//! with PCT defaulting to 25. The gate compares each benchmark's fastest
//! iteration, not its mean: on a shared VM the committed baselines' means
//! sit 26–65% above their minimums, so a 25% gate on the mean either
//! flaps or is set too loose to fire. Improvements and new benchmarks
//! never fail; a missing or unparsable entry always does. Exit status: 0
//! clean, 1 regression, 2 usage/IO error.

use simbase::json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parses a bench JSON-lines file into `name -> min_ns`, last line per
/// name winning.
fn load(path: &str) -> Result<BTreeMap<String, u64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    parse(path, &text)
}

/// [`load`] on text already read; `path` labels errors.
fn parse(path: &str, text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|e| format!("{path}:{}: bad JSON: {e}", lineno + 1))?;
        let name = v
            .field("name")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("{path}:{}: missing \"name\"", lineno + 1))?;
        let min = v
            .field("min_ns")
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("{path}:{}: missing \"min_ns\"", lineno + 1))?;
        out.insert(name.to_string(), min);
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark lines"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut max_regress = 25.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress" => {
                i += 1;
                max_regress = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(p) => p,
                    None => return usage("missing or bad --max-regress value"),
                };
            }
            "--help" | "-h" => return usage(""),
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return usage("expected exactly two files: <baseline.json> <current.json>");
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for (name, &base_min) in &baseline {
        let Some(&cur_min) = current.get(name) else {
            eprintln!("FAIL {name}: present in baseline, missing from {current_path}");
            failed = true;
            continue;
        };
        let verdict = if regressed(base_min, cur_min, max_regress) {
            failed = true;
            "FAIL"
        } else {
            "ok  "
        };
        println!(
            "{verdict} {name}: baseline min {base_min} ns, current min {cur_min} ns ({:+.1}%)",
            (cur_min as f64 / base_min as f64 - 1.0) * 100.0
        );
    }
    if failed {
        eprintln!("benchguard: regression beyond {max_regress:.0}% of baseline");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Whether `current` exceeds `baseline` by more than `max_regress` percent.
fn regressed(baseline: u64, current: u64, max_regress: f64) -> bool {
    current as f64 / baseline as f64 > 1.0 + max_regress / 100.0
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: benchguard <baseline.json> <current.json> [--max-regress PCT]");
    ExitCode::from(if err.is_empty() { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_reads_min_ns_and_fires_past_25_percent() {
        let line = r#"{"name":"b","iters":5,"min_ns":1000000,"mean_ns":1300000}"#;
        let base = parse("base", line).unwrap()["b"];
        assert_eq!(base, 1_000_000, "min_ns, not mean_ns");
        assert!(
            regressed(base, 1_260_000, 25.0),
            "a 26% slower min must fail"
        );
        assert!(!regressed(base, 1_240_000, 25.0));
    }

    #[test]
    fn missing_min_ns_is_an_error() {
        let err = parse("cur", r#"{"name":"b","mean_ns":5}"#).unwrap_err();
        assert!(err.contains("missing \"min_ns\""), "{err}");
    }
}
