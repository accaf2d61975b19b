//! End-to-end checks of the simsched execution subsystem through the
//! experiment harness: deterministic results regardless of worker-thread
//! count, run reuse across renderings, and bit-exact resume from on-disk
//! run artifacts.

use experiments::exps::{self, Sweep};
use experiments::repro::render_selection;
use experiments::Scale;
use std::path::PathBuf;
use workloads::profiles::by_name;

fn tiny() -> Scale {
    Scale {
        warmup: 30_000,
        measure: 50_000,
    }
}

fn apps() -> Vec<workloads::profiles::BenchProfile> {
    vec![
        by_name("art").expect("in roster"),
        by_name("wupwise").expect("in roster"),
    ]
}

/// One configuration per organization family: the base hierarchy,
/// NuRAPID under two promotion policies, the coupled ablation, and D-NUCA.
const KEYS: [&str; 5] = ["base", "nf4", "dm4", "sa4", "dn-energy"];

/// A process-unique scratch directory under the target dir, removed on
/// drop so test runs don't accumulate state.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("simsched-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn sweep_is_deterministic_across_thread_counts() {
    // Same sweep on 1, 2, and 8 worker threads: every AppRun must be
    // bit-identical and every rendered table byte-identical.
    let render = |s: &Sweep| {
        format!(
            "{}\n{}\n{}",
            exps::fig5(s).render(),
            exps::fig8(s).render(),
            exps::fig10(s).render()
        )
    };
    let runs_of = |s: &Sweep| -> Vec<experiments::runner::AppRun> {
        apps()
            .iter()
            .flat_map(|&a| KEYS.iter().map(move |&k| (*s.run(a, k)).clone()))
            .collect()
    };

    let serial = Sweep::with_apps(tiny(), apps());
    serial.prefetch_all(&KEYS);
    let baseline_runs = runs_of(&serial);
    let baseline_tables = render(&serial);

    for threads in [2usize, 8] {
        let s = Sweep::with_apps(tiny(), apps()).with_threads(threads);
        s.prefetch_all(&KEYS);
        // The parallel prefetch simulated each (app, key) pair exactly
        // once — single-flight, no duplicated work across workers.
        assert_eq!(s.simulated() as usize, apps().len() * KEYS.len());
        assert_eq!(runs_of(&s), baseline_runs, "{threads}-thread AppRuns differ from serial");
        assert_eq!(render(&s), baseline_tables, "{threads}-thread tables differ from serial");
    }
}

#[test]
fn sweep_resumes_from_partial_artifacts() {
    let scratch = Scratch::new("resume");
    let total = apps().len() * KEYS.len();

    // From-scratch reference (no artifacts involved).
    let reference = Sweep::with_apps(tiny(), apps());
    reference.prefetch_all(&KEYS);

    // First pass: simulate only K of the jobs into the artifact dir, as
    // if the sweep were killed partway through.
    let k = 2;
    let partial = Sweep::with_apps(tiny(), apps())
        .with_artifacts(&scratch.0)
        .expect("artifact dir");
    for (app, key) in apps().iter().flat_map(|&a| KEYS.iter().map(move |&k| (a, k))).take(k) {
        partial.run(app, key);
    }
    assert_eq!(partial.simulated() as usize, k);
    drop(partial);

    // Second pass over the same dir: the K artifacted jobs load instead
    // of simulating; only the remainder runs.
    let resumed = Sweep::with_apps(tiny(), apps())
        .with_artifacts(&scratch.0)
        .expect("artifact dir");
    resumed.prefetch_all(&KEYS);
    assert_eq!(resumed.resumed() as usize, k, "artifacted jobs should load, not simulate");
    assert_eq!(resumed.simulated() as usize, total - k);

    // And the resumed results are bit-identical to the from-scratch ones.
    for &app in &apps() {
        for &key in &KEYS {
            assert_eq!(*resumed.run(app, key), *reference.run(app, key), "{} {key}", app.name);
        }
    }

    // Third pass: everything comes from artifacts, nothing simulates.
    let cold = Sweep::with_apps(tiny(), apps())
        .with_artifacts(&scratch.0)
        .expect("artifact dir");
    cold.prefetch_all(&KEYS);
    assert_eq!(cold.simulated(), 0, "fully-artifacted sweep must not re-simulate");
    assert_eq!(cold.resumed() as usize, total);
}

#[test]
fn distinct_renderings_share_underlying_runs() {
    // Two renderings of one selection (text, then TSV) and two selections
    // over overlapping configurations reuse each other's runs through the
    // sweep's single-flight store instead of re-simulating them.
    let sweep = Sweep::with_apps(tiny(), apps()).with_threads(2);
    let text = render_selection(&["fig4"], &sweep, false);
    let after_text = sweep.simulated();
    assert_eq!(after_text as usize, apps().len() * 2, "fig4 simulates sa4 and nf4");
    let tsv = render_selection(&["fig4"], &sweep, true);
    assert_ne!(text, tsv, "the TSV rendering must differ from the text one");
    assert_eq!(
        sweep.simulated(),
        after_text,
        "the TSV rendering must reuse the text one's runs"
    );

    // fig9 shares base, nf4 and nf8 with fig8; only dn-perf is new.
    render_selection(&["fig8"], &sweep, false);
    let after_fig8 = sweep.simulated();
    render_selection(&["fig9"], &sweep, false);
    assert_eq!(
        (sweep.simulated() - after_fig8) as usize,
        apps().len(),
        "fig9 after fig8 may simulate only its dn-perf runs"
    );
}

#[test]
fn artifacts_key_on_config_not_label() {
    // A run written at one scale must not be picked up by a sweep at a
    // different scale even though apps and keys match: the digest covers
    // the full configuration.
    let scratch = Scratch::new("digest");
    let one = Sweep::with_apps(tiny(), apps()).with_artifacts(&scratch.0).expect("dir");
    one.run(apps()[0], "base");
    assert_eq!(one.simulated(), 1);
    drop(one);

    let other_scale = Scale {
        warmup: 30_000,
        measure: 50_001,
    };
    let two = Sweep::with_apps(other_scale, apps()).with_artifacts(&scratch.0).expect("dir");
    two.run(apps()[0], "base");
    assert_eq!(two.resumed(), 0, "different scale must miss the artifact");
    assert_eq!(two.simulated(), 1);
}
