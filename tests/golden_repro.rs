//! Golden end-to-end guard: the quick-scale reproduction report must be
//! byte-identical to the committed snapshot.
//!
//! This is the outermost layer of the differential test stack
//! (`tests/differential.rs` proves the flat-arena structures bit-identical
//! to the naive oracles; this test proves the *assembled system* — trace
//! generators, core, L1s, every L2 organization, the scheduler, and the
//! report renderers — produces exactly the output it did before any
//! hot-path rewrite). The snapshot was generated with:
//!
//! ```text
//! cargo run --release -p bench --bin repro -- --quick --threads 4 \
//!     > tests/golden/repro_quick.txt
//! ```
//!
//! The report is bit-identical for any thread count, so the test runs on
//! however many workers the machine offers. To regenerate after an
//! *intentional* output change, rerun the command above and review the
//! diff — never regenerate to silence a failure you can't explain.

use experiments::repro::{render_report, render_selection};
use experiments::{exps::Sweep, Scale};

const GOLDEN: &str = include_str!("golden/repro_quick.txt");
const GOLDEN_DRAM: &str = include_str!("golden/dram_quick.txt");
const GOLDEN_SAMPLING: &str = include_str!("golden/sampling_quick.txt");

/// Runs the full quick-scale sweep in-process and compares the rendered
/// report against the committed golden snapshot, byte for byte.
///
/// Ignored in debug builds (a full quick-scale sweep of 15 applications
/// is minutes of debug-mode simulation); run it with
/// `cargo test --release --test golden_repro`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full sweep is slow unoptimized; run under --release"
)]
fn quick_report_matches_golden_snapshot() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let sweep = Sweep::new(Scale::quick()).with_threads(threads);
    let report = render_report(&sweep);
    if report != GOLDEN {
        // Find the first diverging line for a readable failure before the
        // full-text assert.
        for (i, (got, want)) in report.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(got, want, "report diverges from golden at line {}", i + 1);
        }
        assert_eq!(
            report.len(),
            GOLDEN.len(),
            "report and golden share {} lines but differ in length",
            GOLDEN.lines().count()
        );
        unreachable!("reports differ but no diverging line found");
    }
}

/// The `dram` resize-transient experiment against its own snapshot —
/// opt-in at the CLI (`--exp dram`, never part of `all`), so the main
/// golden above can't cover it. Regenerate with:
///
/// ```text
/// cargo run --release -p bench --bin repro -- --quick --exp dram \
///     > tests/golden/dram_quick.txt
/// ```
///
/// Beyond byte-stability this pins the tier's *behavior*: the committed
/// snapshot shows a shrink-window IPC dip with an energy spike, nonzero
/// retirement writebacks for every application whose working set
/// overflows the 2-MB L2, and recovery by the final window — if a
/// change flattens those transients, the diff in this golden is where
/// it shows.
/// The `sampling` error-vs-speedup study against its snapshot — also
/// opt-in (`--exp sampling`, never part of `all`). Regenerate with:
///
/// ```text
/// cargo run --release -p bench --bin repro -- --quick --exp sampling \
///     > tests/golden/sampling_quick.txt
/// ```
///
/// Beyond byte-stability this pins the sampler's *accuracy contract* at
/// quick scale: every 1/N-detail row must keep the sampled DA/SA ratio
/// equal to the full-run ratio to three decimals while the speedup
/// column climbs past 30×, and the IPC error must stay in single-digit
/// percent even at 1/40 detail. The report is bit-identical for any
/// thread count and any interval split (the interval stitch is
/// trace-ordered by construction — DESIGN.md §16), so a diff here means
/// the estimator, not the schedule, moved.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full sweep is slow unoptimized; run under --release"
)]
fn sampling_study_report_matches_golden_snapshot() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let sweep = Sweep::new(Scale::quick()).with_threads(threads);
    let report = render_selection(&["sampling"], &sweep, false);
    if report != GOLDEN_SAMPLING {
        for (i, (got, want)) in report.lines().zip(GOLDEN_SAMPLING.lines()).enumerate() {
            assert_eq!(got, want, "sampling report diverges from golden at line {}", i + 1);
        }
        assert_eq!(report.len(), GOLDEN_SAMPLING.len(), "reports share lines but differ in length");
        unreachable!("reports differ but no diverging line found");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full sweep is slow unoptimized; run under --release"
)]
fn dram_transient_report_matches_golden_snapshot() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let sweep = Sweep::new(Scale::quick()).with_threads(threads);
    let report = render_selection(&["dram"], &sweep, false);
    if report != GOLDEN_DRAM {
        for (i, (got, want)) in report.lines().zip(GOLDEN_DRAM.lines()).enumerate() {
            assert_eq!(got, want, "dram report diverges from golden at line {}", i + 1);
        }
        assert_eq!(report.len(), GOLDEN_DRAM.len(), "reports share lines but differ in length");
        unreachable!("reports differ but no diverging line found");
    }
}
