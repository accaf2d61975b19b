//! The canonical reproduction report: experiment order, headers, and
//! rendering shared by the `repro` binary and the golden-snapshot guard
//! test.
//!
//! The `repro` binary's stdout is a promise: `tests/golden/repro_quick.txt`
//! pins the `--quick` report byte-for-byte, and the differential test
//! layer relies on that pin to prove hot-path rewrites change nothing
//! observable. Keeping the experiment list and per-experiment rendering
//! here — rather than duplicated in the binary and the test — means the
//! two cannot drift apart.

use crate::exps::{self, Sweep};

/// Experiment ids in rendering order, paired with the configuration keys
/// each one needs (the prewarm set handed to the worker pool).
pub const EXPERIMENTS: &[(&str, &[&str])] = &[
    ("table2", &[]),
    ("table4", &[]),
    ("table3", &["base"]),
    ("fig4", &["sa4", "nf4"]),
    ("fig5", &["dm4", "nf4", "fs4"]),
    ("fig6", &["base", "dm4", "nf4", "fs4", "id4"]),
    ("lru", &["dm4", "clock-dm", "lru-dm", "nf4", "clock-nf", "lru-nf"]),
    ("fig7", &["nf2", "nf4", "nf8"]),
    ("fig8", &["base", "nf2", "nf4", "nf8"]),
    ("fig9", &["base", "dn-perf", "nf4", "nf8"]),
    ("fig10", &["base", "dn-energy", "nf4"]),
    ("fig11", &["base", "dn-perf", "dn-energy", "nf4"]),
    ("restrict", &["base", "nf4", "nf4-r256", "nf4-r64"]),
    ("orgs", &["base", "dn-perf", "dn-energy", "dn-memo", "cnuca"]),
    // `cmp` prewarms nothing here: its jobs are CMP scenarios, prefetched
    // on the worker pool by `cmp::cmp_table` itself.
    ("cmp", &[]),
];

/// The union of every listed experiment's configuration keys, in first-use
/// order — the prewarm set for [`Sweep::prefetch_all`].
pub fn prewarm_keys(ids: &[&str]) -> Vec<&'static str> {
    let mut keys: Vec<&'static str> = Vec::new();
    for (id, wanted) in EXPERIMENTS {
        if ids.contains(id) {
            for k in wanted.iter() {
                if !keys.contains(k) {
                    keys.push(k);
                }
            }
        }
    }
    keys
}

/// Resolves a `--exp` selector to the experiment ids it names, in
/// rendering order: `"all"` expands to every experiment, a known id to
/// itself, and an unknown id to `None`.
pub fn resolve_ids(exp: &str) -> Option<Vec<&'static str>> {
    if exp == "all" {
        return Some(EXPERIMENTS.iter().map(|&(id, _)| id).collect());
    }
    // `dram` is opt-in only: not part of `all` (which pins the L4-free
    // golden report), but a valid explicit selector. It prewarms nothing
    // here — `exps::dram` prefetches its own transient jobs.
    if exp == "dram" {
        return Some(vec!["dram"]);
    }
    // `sampling` is opt-in for the same reason: the error-vs-speedup
    // study runs full-detail baselines alongside its sampled estimates,
    // so folding it into `all` would double the cost of the pinned
    // report. `exps::sampling` prefetches its own jobs.
    if exp == "sampling" {
        return Some(vec!["sampling"]);
    }
    EXPERIMENTS.iter().find(|&&(id, _)| id == exp).map(|&(id, _)| vec![id])
}

/// Renders a selection of experiments exactly as the `repro` binary
/// prints them to stdout: the union of their configuration keys is
/// prewarmed on the sweep's worker pool, then each experiment's text
/// (or TSV, when requested and the experiment has one) is emitted
/// followed by a newline. This is the single rendering entry point of
/// the `repro` binary and the golden-snapshot tests, so the two cannot
/// drift apart by a byte.
///
/// # Panics
///
/// Panics on an id not present in [`EXPERIMENTS`]; validate selectors
/// with [`resolve_ids`] first.
pub fn render_selection(ids: &[&str], sweep: &Sweep, tsv: bool) -> String {
    render_selection_cores(ids, sweep, tsv, crate::cmp::CMP_CORES)
}

/// [`render_selection`] with an explicit CMP core-count list (the
/// `--cores` flag): the `cmp` experiment sweeps `cores` instead of its
/// default 2/4/8, every other experiment is unaffected.
///
/// # Panics
///
/// Panics on an id not present in [`EXPERIMENTS`]; validate selectors
/// with [`resolve_ids`] first.
pub fn render_selection_cores(ids: &[&str], sweep: &Sweep, tsv: bool, cores: &[u32]) -> String {
    let keys = prewarm_keys(ids);
    if !keys.is_empty() {
        sweep.prefetch_all(&keys);
    }
    let mut out = String::new();
    for id in ids {
        // TSV where the experiment has one, text otherwise.
        let text = tsv
            .then(|| render_experiment_tsv(id, sweep, cores))
            .flatten()
            .or_else(|| render_experiment(id, sweep, cores))
            .unwrap_or_else(|| panic!("unknown experiment id {id:?}"));
        out.push_str(&text);
        out.push('\n');
    }
    out
}

/// Renders one experiment's text, `cmp` over `cores`. Returns `None` for
/// an unknown id.
fn render_experiment(id: &str, sweep: &Sweep, cores: &[u32]) -> Option<String> {
    Some(match id {
        "table2" => format!("Table 2: cache energies (nJ)\n{}", exps::table2().render()),
        "table3" => format!(
            "Table 3: applications and base-case characterization\n{}",
            exps::table3(sweep).render()
        ),
        "table4" => format!("Table 4: cache latencies (cycles)\n{}", exps::table4().render()),
        "fig4" => exps::fig4(sweep).render(),
        "fig5" => exps::fig5(sweep).render(),
        "fig6" => exps::fig6(sweep).render(),
        "lru" => exps::sec531(sweep).render(),
        "fig7" => exps::fig7(sweep).render(),
        "fig8" => exps::fig8(sweep).render(),
        "fig9" => exps::fig9(sweep).render(),
        "fig10" => exps::fig10(sweep).render(),
        "fig11" => exps::fig11(sweep).render(),
        "restrict" => exps::restriction_ablation(sweep).render(),
        "orgs" => exps::orgs(sweep).render(),
        "cmp" => crate::cmp::cmp_table(sweep, cores).render(),
        "dram" => exps::dram(sweep).render(),
        "sampling" => exps::sampling(sweep).render(),
        _ => return None,
    })
}

/// Renders one experiment's machine-readable TSV, `cmp` over `cores`.
/// Returns `None` when the id has no TSV form (callers fall back to
/// [`render_experiment`]).
fn render_experiment_tsv(id: &str, sweep: &Sweep, cores: &[u32]) -> Option<String> {
    Some(match id {
        "fig4" => exps::fig4(sweep).render_tsv(),
        "fig5" => exps::fig5(sweep).render_tsv(),
        "fig6" => exps::fig6(sweep).render_tsv(),
        "fig7" => exps::fig7(sweep).render_tsv(),
        "fig8" => exps::fig8(sweep).render_tsv(),
        "fig9" => exps::fig9(sweep).render_tsv(),
        "cmp" => crate::cmp::cmp_table(sweep, cores).render_tsv(),
        _ => return None,
    })
}

/// The complete text report — every experiment in [`EXPERIMENTS`] order,
/// each followed by a newline — byte-identical to the `repro` binary's
/// stdout for the same scale.
pub fn render_report(sweep: &Sweep) -> String {
    let ids = resolve_ids("all").expect("'all' always resolves");
    render_selection(&ids, sweep, false)
}
