//! End-to-end checks of the CMP subsystem through the experiment
//! harness: CMP runs must be bit-identical across simsched worker-thread
//! counts, across cold and warm checkpoint paths, and across artifact
//! resume — the same determinism contract `simsched_integration.rs`
//! pins for the single-core sweep — and a sampled sweep runs them at
//! full detail. The warm-up payload a `CmpSystem` checkpoints is pinned
//! byte for byte, sharer directory included.

use cmp::{CmpConfig, CmpSystem};
use experiments::cmp::cmp_profiles;
use experiments::exps::{kind_of, Sweep};
use experiments::runner::TRACE_SEED;
use experiments::{CmpRun, SampleSpec, Scale};
use simbase::digest::Hasher128;
use simbase::snapshot::Encoder;
use std::path::PathBuf;

fn tiny() -> Scale {
    Scale {
        warmup: 12_000,
        measure: 20_000,
    }
}

/// A mixed CMP job list: two core counts, two organizations.
const JOBS: [(u32, &'static str); 3] = [(2, "nf4"), (2, "base"), (4, "nf4")];

fn sweep(scale: Scale) -> Sweep {
    // CMP jobs bring their own high-load application assignment; the
    // sweep just needs a non-empty per-app roster to construct.
    Sweep::with_apps(scale, vec![workloads::profiles::by_name("galgel").expect("in roster")])
}

fn runs_of(s: &Sweep) -> Vec<CmpRun> {
    JOBS.iter().map(|&(cores, key)| (*s.run_cmp(cores, key)).clone()).collect()
}

/// A process-unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cmp-it-{tag}-{}", std::process::id()));
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
fn cmp_runs_are_bit_identical_across_thread_counts() {
    // Same CMP jobs on 1, 2, and 8 worker threads: every CmpRun must be
    // bit-identical and the rendered table byte-identical.
    let serial = sweep(tiny());
    serial.prefetch_cmp(&JOBS);
    let baseline_runs = runs_of(&serial);
    let baseline_table = experiments::cmp::cmp_table(&serial, &[2, 4]).render();

    for threads in [2usize, 8] {
        let s = sweep(tiny()).with_threads(threads);
        s.prefetch_cmp(&JOBS);
        assert_eq!(
            s.simulated() as usize,
            JOBS.len(),
            "{threads}-thread prefetch duplicated or lost CMP work"
        );
        assert_eq!(runs_of(&s), baseline_runs, "{threads}-thread CmpRuns differ from serial");
        assert_eq!(
            experiments::cmp::cmp_table(&s, &[2, 4]).render(),
            baseline_table,
            "{threads}-thread cmp table differs from serial"
        );
    }
}

#[test]
fn cmp_checkpoints_are_bit_identical_cold_and_warm() {
    let scratch = Scratch::new("chk");

    // Reference: no checkpoint store anywhere near the run.
    let direct = sweep(tiny());
    let want = runs_of(&direct);

    // Cold path: every warm-up digest misses, snapshots are built and
    // written — and the run must already go through the decode leg.
    let cold = sweep(tiny()).with_checkpoints(&scratch.0).expect("checkpoint dir");
    assert_eq!(runs_of(&cold), want, "cold checkpoint path diverged from direct");
    drop(cold);
    let snapshots = std::fs::read_dir(&scratch.0).expect("dir").count();
    assert!(snapshots > 0, "cold pass wrote no checkpoints");

    // Warm path: a fresh sweep over the same directory restores every
    // warm-up from disk instead of re-simulating it.
    let warm = sweep(tiny()).with_checkpoints(&scratch.0).expect("checkpoint dir");
    assert_eq!(runs_of(&warm), want, "warm checkpoint path diverged from direct");
}

#[test]
fn sampled_sweeps_run_cmp_at_full_detail_under_the_same_digest() {
    // `--sample` estimates single-core runs only: a sampled sweep's CMP
    // run is the full-detail run, keyed by the same digest, so it
    // resumes from the full-detail sweep's artifact without simulating.
    let scratch = Scratch::new("sampled");
    let spec = SampleSpec {
        period: 8_000,
        warmup: 400,
        measure: 1_600,
    };
    let full = sweep(tiny()).with_artifacts(&scratch.0).expect("artifact dir");
    let want = (*full.run_cmp(4, "nf4")).clone();
    drop(full);

    let sampled = sweep(tiny()).with_sample(Some(spec));
    assert_eq!(*sampled.run_cmp(4, "nf4"), want, "a sampled sweep changed the CMP run");
    let resumed = sweep(tiny())
        .with_sample(Some(spec))
        .with_artifacts(&scratch.0)
        .expect("artifact dir");
    assert_eq!(*resumed.run_cmp(4, "nf4"), want);
    assert_eq!(
        (resumed.resumed(), resumed.simulated()),
        (1, 0),
        "a sampled sweep must key CMP runs by the full-detail digest"
    );
}

#[test]
fn cmp_artifacts_resume_bit_identically() {
    let scratch = Scratch::new("art");
    let reference = sweep(tiny());

    let first = sweep(tiny()).with_artifacts(&scratch.0).expect("artifact dir");
    first.prefetch_cmp(&JOBS);
    assert_eq!(first.simulated() as usize, JOBS.len());
    drop(first);

    let resumed = sweep(tiny()).with_artifacts(&scratch.0).expect("artifact dir");
    resumed.prefetch_cmp(&JOBS);
    assert_eq!(resumed.resumed() as usize, JOBS.len(), "artifacted CMP jobs should load");
    assert_eq!(resumed.simulated(), 0, "fully-artifacted CMP sweep must not re-simulate");
    assert_eq!(runs_of(&resumed), runs_of(&reference), "resumed CmpRuns diverged");
}

/// Pins the FNV-1a-128 digest of the warm-up payload of a 2-, 4- and
/// 8-core system over `base` and `nf4`, the experiment's per-core roster
/// warmed for 20 000 ops per core. The payload ends with the sharer
/// directory in block order, so any change to how sharers are tracked,
/// ordered or serialized moves a digest; a faster directory must leave
/// every one untouched.
#[test]
fn cmp_warmup_payloads_are_pinned() {
    const PINNED: [(u32, &str, &str); 6] = [
        (2, "base", "b0c27d03fe5f95aa254de716ac73caff"),
        (2, "nf4", "969d5edb900df9ebd0ff3031614a9f68"),
        (4, "base", "720c7af05b297b61b9966a0aacb7daf5"),
        (4, "nf4", "6750ed0174bd862c1a14a8d3a9b079f1"),
        (8, "base", "82f625b9e1c35bc3f71553af0eef2b3c"),
        (8, "nf4", "33d5a1be0cea41a7805c8b7207771c10"),
    ];
    for (cores, key, want) in PINNED {
        let mut sys = CmpSystem::new(
            CmpConfig::micro2003(cores),
            kind_of(key).build(),
            &cmp_profiles(cores),
            TRACE_SEED,
        );
        sys.warm_run(20_000);
        let mut e = Encoder::new();
        sys.save_state(&mut e);
        let mut h = Hasher128::new();
        h.write_bytes(&e.into_bytes());
        assert_eq!(h.digest().hex(), want, "{cores} cores over {key}: payload drifted");
    }
}
