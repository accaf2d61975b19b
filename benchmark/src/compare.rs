//! `compare`: judges a change against its parent from alternating runs.
//!
//! Each input file holds one JSON record per run (`--out`), parent runs in
//! one file and change runs in the other, in the order they alternated.
//! For every (workload, end-to-end metric) the i-th parent run is paired
//! with the i-th change run, and the pair set is judged:
//!
//! - **improved**: the change wins at least 9 of every 10 pairs (ties count
//!   for neither side), and the medians differ by more than the parent's
//!   interquartile range;
//! - **worse**: the change's median is worse than the parent's by more than
//!   the metric's bound;
//! - **unresolved**: fewer than 10 pairs, or either side's spread
//!   (IQR / median) is wider than the bound;
//! - **unchanged**: otherwise.

use crate::config::{self, EndToEnd};
use crate::report::number;
use crate::stats;
use simbase::json::{self, Json};

/// The judgement of one (workload, metric) pair set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the 9-in-10 and IQR rule.
    Improved,
    /// Within the bound and the noise.
    Unchanged,
    /// Worse than the bound allows.
    Worse,
    /// Too few pairs or too noisy to tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest alternating pairs a verdict other than unresolved needs.
pub const MIN_PAIRS: usize = 10;

/// Whether `a` reads better than `b`.
fn better(a: f64, b: f64, lower_is_better: bool) -> bool {
    if lower_is_better {
        a < b
    } else {
        a > b
    }
}

/// Pairs the change wins; ties count for neither side.
fn wins(parent: &[f64], change: &[f64], lower_is_better: bool) -> usize {
    parent.iter().zip(change).filter(|(p, c)| better(**c, **p, lower_is_better)).count()
}

/// Judges paired samples of one metric (see the module docs).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let n = parent.len().min(change.len());
    if n < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (parent, change) = (&parent[..n], &change[..n]);
    let better = |a: f64, b: f64| better(a, b, lower_is_better);
    let wins = wins(parent, change, lower_is_better);
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let (q1, q3) = stats::quartiles(parent);
    if 10 * wins >= 9 * n && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let limit = if lower_is_better { mp * (1.0 + bound) } else { mp * (1.0 - bound) };
    if better(limit, mc) {
        return Verdict::Worse;
    }
    if stats::spread(parent) > bound || stats::spread(change) > bound {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Values of one metric of one workload, in file order.
fn series(records: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.field("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| number(r.field("metrics")?.field(metric)?, "value"))
        .collect()
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// One row of the comparison table.
fn row(workload: &str, m: &EndToEnd, parent: &[f64], change: &[f64]) -> String {
    let side = |xs: &[f64]| {
        if xs.len() < 2 {
            return format!("n={}", xs.len());
        }
        let (q1, q3) = stats::quartiles(xs);
        format!("{:.4} [{q1:.4}, {q3:.4}] spread {:.3}", stats::median(xs), stats::spread(xs))
    };
    let wins = wins(parent, change, m.lower_is_better);
    let n = parent.len().min(change.len());
    format!(
        "{workload} {} ({}, bound {}): parent {} | change {} | wins {wins}/{n} -> {}",
        m.name,
        m.unit,
        m.bound,
        side(parent),
        side(change),
        verdict(parent, change, m.lower_is_better, m.bound).label()
    )
}

/// `compare PARENT CHANGE`: prints one row per (workload, end-to-end
/// metric) and returns how many rows came out worse.
pub fn run(parent_path: &str, change_path: &str) -> Result<usize, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let mut worse = 0;
    for workload in &config::benchmark().workloads {
        for m in &config::benchmark().end_to_end {
            let (p, c) = (series(&parent, workload, &m.name), series(&change, workload, &m.name));
            if p.is_empty() && c.is_empty() {
                continue;
            }
            if verdict(&p, &c, m.lower_is_better, m.bound) == Verdict::Worse {
                worse += 1;
            }
            println!("{}", row(workload, m, &p, &c));
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten noisy samples around `center` (±1%).
    fn around(center: f64) -> Vec<f64> {
        [0.0, 0.4, -0.6, 1.0, -0.2, 0.8, -1.0, 0.2, -0.4, 0.6]
            .iter()
            .map(|d| center * (1.0 + d / 100.0))
            .collect()
    }

    #[test]
    fn a_clear_speedup_is_improved() {
        assert_eq!(verdict(&around(10.0), &around(9.0), true, 0.1), Verdict::Improved);
        // Higher-is-better metrics judge the other way round.
        assert_eq!(verdict(&around(10.0), &around(11.0), false, 0.1), Verdict::Improved);
    }

    #[test]
    fn identical_distributions_are_unchanged() {
        assert_eq!(verdict(&around(10.0), &around(10.0), true, 0.1), Verdict::Unchanged);
        // A shift inside the noise is not a gain.
        assert_eq!(verdict(&around(10.0), &around(9.99), true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_worse() {
        assert_eq!(verdict(&around(10.0), &around(11.5), true, 0.1), Verdict::Worse);
        assert_eq!(verdict(&around(10.0), &around(8.5), false, 0.1), Verdict::Worse);
        // Slower but within the bound and the noise: unchanged.
        assert_eq!(verdict(&around(10.0), &around(10.5), true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let wild: Vec<f64> = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0].to_vec();
        assert_eq!(verdict(&around(10.0), &wild, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn ties_count_for_neither_side_and_short_series_are_unresolved() {
        // 8 wins and 2 ties out of 10: short of 9 in 10.
        let parent = around(10.0);
        let mut change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        change[0] = parent[0];
        change[1] = parent[1];
        assert_ne!(verdict(&parent, &change, true, 0.25), Verdict::Improved);
        assert_eq!(verdict(&parent[..9], &change[..9], true, 0.25), Verdict::Unresolved);
    }

    #[test]
    fn series_reads_result_records() {
        let records: Vec<Json> = [
            r#"{"workload":"fig9-warm","metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#,
            r#"{"workload":"modes","metrics":{"wall_s":{"value":9,"unit":"s"}}}"#,
            r#"{"workload":"fig9-warm","metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#,
        ]
        .iter()
        .map(|l| json::parse(l).unwrap())
        .collect();
        assert_eq!(series(&records, "fig9-warm", "wall_s"), vec![1.5, 1.25]);
        assert_eq!(series(&records, "modes", "wall_s"), vec![9.0]);
        assert!(series(&records, "modes", "cpu_s").is_empty());
    }
}
