//! Output checks: what every `repro` invocation must print, and the
//! counts its stderr status lines must report.

use simbase::digest::Hasher128;

/// The pinned quick-scale report (all experiments).
pub const REPRO_QUICK: &str = include_str!("../../tests/golden/repro_quick.txt");
/// The pinned quick-scale `cmp` report.
pub const CMP_QUICK: &str = include_str!("../../tests/golden/cmp_quick.txt");
/// The pinned quick-scale `dram` report.
pub const DRAM_QUICK: &str = include_str!("../../tests/golden/dram_quick.txt");
/// FNV-1a-128 digest of the quick sampled Figure 9 report, which has no
/// committed golden; generated from the seed code.
pub const FIG9_SAMPLE_QUICK_DIGEST: &str = include_str!("../expected/fig9_sample_quick.fnv128");

/// What an invocation's stdout must be.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Byte-identical to a whole golden report.
    Golden(&'static str),
    /// Byte-identical to the section of the quick report that starts with
    /// this heading.
    QuickSection(&'static str),
    /// Hashes to this FNV-1a-128 digest (hex).
    Digest(&'static str),
}

impl Expect {
    /// `Ok(())` when `stdout` is what this expectation demands, else a
    /// one-line reason.
    pub fn check(self, stdout: &str) -> Result<(), String> {
        let ok = match self {
            Expect::Golden(golden) => stdout == golden,
            Expect::QuickSection(heading) => {
                let want = section(REPRO_QUICK, heading)
                    .ok_or_else(|| format!("golden report has no section {heading:?}"))?;
                stdout == want
            }
            Expect::Digest(hex) => digest_hex(stdout) == hex.trim(),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("stdout mismatch ({} bytes, digest {})", stdout.len(), digest_hex(stdout)))
        }
    }
}

/// FNV-1a-128 of `text` (`simbase::digest`), as 32 hex digits.
pub fn digest_hex(text: &str) -> String {
    let mut h = Hasher128::new();
    h.write_bytes(text.as_bytes());
    h.digest().hex()
}

/// The section of a full `repro` report that begins with the line starting
/// `heading`, through the blank line that ends it — exactly what
/// `repro --exp <id>` prints when that experiment runs alone.
pub fn section<'a>(report: &'a str, heading: &str) -> Option<&'a str> {
    let start =
        if report.starts_with(heading) { 0 } else { report.find(&format!("\n{heading}"))? + 1 };
    let len = report[start..].find("\n\n")? + 2;
    Some(&report[start..start + len])
}

/// The counts a `repro` invocation reports on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Runs simulated (`[repro] N runs (S simulated, …)`).
    pub simulated: u64,
    /// Runs resumed from artifacts.
    pub resumed: u64,
    /// Checkpoint store hits (`[simchk] H hits, …`; 0 without a store).
    pub hits: u64,
    /// Checkpoint store misses.
    pub misses: u64,
}

impl Counts {
    /// `Ok(())` when these are the `want`ed counts, else the difference.
    pub fn expect(self, want: Counts) -> Result<(), String> {
        if self == want {
            Ok(())
        } else {
            Err(format!("counts {self:?}, expected {want:?}"))
        }
    }
}

/// Parses the `[repro]` and `[simchk]` status lines. The `[repro]` line is
/// required; the `[simchk]` line is present only with a checkpoint store.
pub fn parse_counts(stderr: &str) -> Option<Counts> {
    let repro = stderr.lines().rev().find_map(|l| l.strip_prefix("[repro] "))?;
    // "282 runs (282 simulated, 0 resumed, 702 shared hits), 2 threads, 6.7s"
    let inner = &repro[repro.find('(')? + 1..repro.find(')')?];
    let mut parts = inner.split(", ");
    let simulated = leading_u64(parts.next()?.strip_suffix(" simulated")?)?;
    let resumed = leading_u64(parts.next()?.strip_suffix(" resumed")?)?;
    let mut counts = Counts { simulated, resumed, ..Counts::default() };
    if let Some(chk) = stderr.lines().rev().find_map(|l| l.strip_prefix("[simchk] ")) {
        // "60 hits, 0 misses, 0 pruned -> dir"
        let mut parts = chk.split(", ");
        counts.hits = leading_u64(parts.next()?.strip_suffix(" hits")?)?;
        counts.misses = leading_u64(parts.next()?.strip_suffix(" misses")?)?;
    }
    Some(counts)
}

fn leading_u64(s: &str) -> Option<u64> {
    s.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPRO_FULL: &str = include_str!("../../repro_full.txt");

    #[test]
    fn fig9_section_is_extracted_from_both_reports() {
        for report in [REPRO_QUICK, REPRO_FULL] {
            let s = section(report, "Figure 9:").expect("Figure 9 present");
            assert!(s.starts_with("Figure 9: D-NUCA (ss-performance)"));
            assert!(s.ends_with("\n\n"), "section keeps its closing blank line");
            assert_eq!(s.matches("\n\n").count(), 1, "exactly one section");
            assert!(s.contains("\nOVERALL "));
            assert!(!s.contains("Figure 10"));
        }
    }

    #[test]
    fn first_and_missing_sections() {
        let first = section(REPRO_FULL, "Table 2:").expect("first section");
        assert!(first.starts_with("Table 2: cache energies"));
        assert_eq!(section(REPRO_FULL, "Figure 99:"), None);
        // A heading only matches at the start of a line.
        assert_eq!(section("x Figure 9: y\n\n", "Figure 9:"), None);
    }

    #[test]
    fn expectations_accept_only_the_exact_bytes() {
        let fig9 = section(REPRO_QUICK, "Figure 9:").unwrap();
        assert!(Expect::QuickSection("Figure 9:").check(fig9).is_ok());
        let mut off_by_one = fig9.to_string();
        off_by_one.pop();
        assert!(Expect::QuickSection("Figure 9:").check(&off_by_one).is_err());
        assert!(Expect::Golden(CMP_QUICK).check(CMP_QUICK).is_ok());
        assert!(Expect::Golden(CMP_QUICK).check(DRAM_QUICK).is_err());
        assert_eq!(FIG9_SAMPLE_QUICK_DIGEST.trim().len(), 32);
        assert!(Expect::Digest(FIG9_SAMPLE_QUICK_DIGEST).check(DRAM_QUICK).is_err());
        assert_ne!(digest_hex("a"), digest_hex("b"));
    }

    #[test]
    fn status_lines_parse() {
        let err = "[simsched] 60 jobs (15 apps x 4 configs) on 2 threads\n\
                   [simsched] done base/applu 0.05s\n\
                   [repro] 60 runs (60 simulated, 0 resumed, 60 shared hits), 2 threads, 1.8s\n\
                   [simchk] 0 hits, 60 misses, 0 pruned -> /tmp/x\n";
        assert_eq!(
            parse_counts(err),
            Some(Counts { simulated: 60, resumed: 0, hits: 0, misses: 60 })
        );
        let no_store =
            "[repro] 282 runs (282 simulated, 0 resumed, 702 shared hits), 2 threads, 6.7s\n";
        assert_eq!(
            parse_counts(no_store).map(|c| (c.simulated, c.hits, c.misses)),
            Some((282, 0, 0))
        );
        assert_eq!(parse_counts("error: unknown experiment\n"), None);
    }
}
