//! The billion-instruction acceptance run (DESIGN.md §16): one
//! `Scale::huge` NuRAPID run estimated by periodic sampling must finish
//! in minutes of wall clock, not the hours a full-detail run of the
//! same budget would take — the whole point of the sampler.
//!
//! Ignored in debug builds like the golden sweeps (a billion functional
//! instructions through an unoptimized build is not "minutes"); CI runs
//! it explicitly with `cargo test --release -q --test sampling_huge`.

use experiments::{run_app_sampled, L2Kind, RunOptions, SampleSpec, Scale};
use nurapid::NuRapidConfig;
use std::time::Instant;
use workloads::profiles::by_name;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1B functional instructions need an optimized build"
)]
fn billion_instruction_sampled_run_completes_in_minutes() {
    let scale = Scale::huge();
    let spec = SampleSpec::for_scale(scale);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let t0 = Instant::now();
    let run = run_app_sampled(
        by_name("equake").expect("in roster"),
        &L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
        scale,
        spec,
        8,
        threads,
        RunOptions::default(),
    );
    let wall = t0.elapsed();
    eprintln!(
        "[huge] 1B-instruction sampled run: {:.1}s wall, {} windows, \
         speedup {:.0}x, IPC {:.3} ± {:.3}",
        wall.as_secs_f64(),
        run.windows.len(),
        run.speedup(),
        run.ipc().mean,
        run.ipc().ci95,
    );

    // The full measured budget was covered (every window observed its
    // slice of the 1B instructions), at a detailed-instruction reduction
    // far past the ≥20× target, with a sane, tight estimate.
    assert_eq!(run.windows.len() as u64, spec.windows(scale));
    let measured: u64 = run.windows.iter().map(|w| w.counters.core.instructions).sum();
    assert_eq!(measured, spec.windows(scale) * spec.measure);
    assert!(run.speedup() >= 20.0, "speedup {:.1}x below the 20x target", run.speedup());
    let ipc = run.ipc();
    assert!(ipc.mean > 0.1 && ipc.mean < 4.0, "implausible IPC {}", ipc.mean);
    // "Minutes": generous for slow shared runners, but hard enough that
    // an accidental full-detail fallback (hours at this budget) fails.
    assert!(wall.as_secs() < 1200, "huge sampled run took {:.0}s", wall.as_secs_f64());
}
