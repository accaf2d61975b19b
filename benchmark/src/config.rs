//! The benchmark's two declarations: `BENCHMARK.json` at the repository
//! root (workloads, metrics, bounds) and `benchmark/manifest.json` (the
//! fixed numerators, seed, thread count, residual tolerance, and which
//! end-to-end metric each layer metric should move on which workload).

use crate::report::number;
use simbase::json::{self, Json};
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const MANIFEST_JSON: &str = include_str!("../manifest.json");

/// One end-to-end metric and its regression bound.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// `BENCHMARK.json`, as the harness uses it.
#[derive(Debug)]
pub struct Benchmark {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metric names and units.
    pub per_layer: Vec<(String, String)>,
}

/// `benchmark/manifest.json`.
#[derive(Debug)]
pub struct Manifest {
    /// Default `--seed` of the ladder.
    pub seed: u64,
    /// Worker threads of every run (the harness's own constant; a test
    /// keeps the two equal).
    #[cfg_attr(not(test), allow(dead_code))]
    pub threads: u64,
    /// Default timed reps per workload.
    pub reps: usize,
    /// Set-up repetitions per workload; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Largest accepted `ladder.residual_frac`.
    pub residual_tolerance: f64,
    /// Workloads whose residual is checked against the tolerance.
    pub residual_checked: Vec<String>,
    sim_insts: Vec<(String, u64)>,
    /// Per-layer metric → the `(workload, end-to-end metric)` pairs it
    /// should move (empty for counts and checks that move nothing). Read
    /// by people and tests; the harness itself never needs it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub layers: Vec<(String, Vec<(String, String)>)>,
}

impl Manifest {
    /// The fixed simulated-instruction count of one rep of `workload`.
    pub fn sim_insts(&self, workload: &str) -> Option<u64> {
        self.sim_insts.iter().find(|(w, _)| w == workload).map(|&(_, n)| n)
    }
}

fn strings(j: Option<&Json>) -> Vec<String> {
    j.and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .map(String::from)
        .collect()
}

fn str_field(j: &Json, key: &str) -> String {
    j.field(key).and_then(Json::as_str).unwrap_or_default().to_string()
}

fn parse_benchmark(text: &str) -> Result<Benchmark, String> {
    let j = json::parse(text)?;
    let arr = |key: &str| {
        j.field(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json lacks {key}"))
    };
    let workloads = arr("workloads")?.iter().map(|w| str_field(w, "name")).collect();
    let end_to_end = arr("end_to_end")?
        .iter()
        .map(|m| EndToEnd {
            name: str_field(m, "name"),
            unit: str_field(m, "unit"),
            lower_is_better: str_field(m, "better") == "lower",
            bound: number(m, "bound").unwrap_or(0.0),
        })
        .collect();
    let per_layer =
        arr("per_layer")?.iter().map(|m| (str_field(m, "name"), str_field(m, "unit"))).collect();
    Ok(Benchmark { workloads, end_to_end, per_layer })
}

fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let j = json::parse(text)?;
    let u = |key: &str| j.field(key).and_then(Json::as_u64).ok_or(format!("manifest lacks {key}"));
    let sim_insts = match j.field("sim_insts") {
        Some(Json::Obj(pairs)) => {
            pairs.iter().filter_map(|(k, v)| Some((k.clone(), v.as_u64()?))).collect()
        }
        _ => return Err("manifest lacks sim_insts".into()),
    };
    let layers = match j.field("layers") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                let moves = strings(v.field("moves"))
                    .iter()
                    .map(|p| {
                        p.split_once(':')
                            .map(|(w, e)| (w.to_string(), e.to_string()))
                            .ok_or(format!("{k}: bad pair {p:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                Ok((k.clone(), moves))
            })
            .collect::<Result<_, String>>()?,
        _ => return Err("manifest lacks layers".into()),
    };
    Ok(Manifest {
        seed: u("seed")?,
        threads: u("threads")?,
        reps: u("reps")? as usize,
        setup_repeats: u("setup_repeats")? as usize,
        residual_tolerance: number(&j, "residual_tolerance")
            .ok_or("manifest lacks residual_tolerance")?,
        residual_checked: strings(j.field("residual_checked")),
        sim_insts,
        layers,
    })
}

/// The parsed `BENCHMARK.json`.
pub fn benchmark() -> &'static Benchmark {
    static B: OnceLock<Benchmark> = OnceLock::new();
    B.get_or_init(|| parse_benchmark(BENCHMARK_JSON).expect("BENCHMARK.json parses"))
}

/// The parsed manifest.
pub fn manifest() -> &'static Manifest {
    static M: OnceLock<Manifest> = OnceLock::new();
    M.get_or_init(|| parse_manifest(MANIFEST_JSON).expect("manifest.json parses"))
}

/// Names of every declared per-layer metric.
pub fn per_layer_names() -> impl Iterator<Item = &'static str> {
    benchmark().per_layer.iter().map(|(n, _)| n.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{self, Regime};
    use crate::workload::{Store, WORKLOADS};
    use experiments::Scale;

    #[test]
    fn declarations_agree_with_the_harness() {
        let b = benchmark();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(b.workloads, names);
        let m = manifest();
        assert_eq!(m.threads, crate::workload::THREADS as u64);
        assert!(m.residual_tolerance > 0.0 && m.residual_tolerance <= 0.25);
        for w in &m.residual_checked {
            assert!(names.contains(&w.as_str()), "{w}");
        }
        let setup = b.end_to_end.iter().find(|e| e.name == "setup_s").expect("setup_s declared");
        assert!(b.end_to_end.iter().all(|e| e.bound <= setup.bound && e.bound <= 0.25));
    }

    #[test]
    fn every_per_layer_metric_is_mapped_to_what_it_moves() {
        let m = manifest();
        let e2e: Vec<&str> = benchmark().end_to_end.iter().map(|e| e.name.as_str()).collect();
        let declared: Vec<&str> = per_layer_names().collect();
        for name in &declared {
            let (_, moves) =
                m.layers.iter().find(|l| l.0 == *name).unwrap_or_else(|| panic!("{name} unmapped"));
            for (w, e) in moves {
                assert!(e2e.contains(&e.as_str()), "{name} moves unknown {e}");
                assert!(benchmark().workloads.contains(w), "{name} on unknown {w}");
            }
        }
        for (name, _) in &m.layers {
            assert!(declared.contains(&name.as_str()), "{name} mapped but not declared");
        }
    }

    #[test]
    fn pinned_numerators_match_the_instruction_model() {
        let q = Scale::quick();
        for w in WORKLOADS {
            let regime = match w.store {
                Store::None => Regime::NoStore,
                Store::Cold => Regime::Cold,
                Store::Warm => Regime::Warm,
            };
            let mut total = 0;
            for inv in w.invocations {
                let per_run = |label: &str| {
                    model::insts(model::classify(label, inv.sample).unwrap(), regime, q, 2)
                };
                total += match (inv.exp, inv.sample) {
                    // 270 single-core runs plus the 2/4/8-core CMP table.
                    ("all", _) => {
                        270 * per_run("nf4/x")
                            + 4 * (per_run("cmp2x/k") + per_run("cmp4x/k") + per_run("cmp8x/k"))
                    }
                    ("cmp", _) => {
                        4 * (per_run("cmp2x/k") + per_run("cmp4x/k") + per_run("cmp8x/k"))
                    }
                    ("dram", _) => 15 * per_run("dram/x"),
                    _ => inv.runs * per_run("nf4/x"),
                };
            }
            assert_eq!(manifest().sim_insts(w.name), Some(total), "{}", w.name);
        }
    }

    #[test]
    fn malformed_declarations_are_errors() {
        assert!(parse_benchmark("{}").is_err());
        assert!(parse_manifest(r#"{"seed": 1}"#).is_err());
    }
}
