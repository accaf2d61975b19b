//! The benchmark roster: per-application statistical profiles.
//!
//! Parameters are calibrated so the full-system simulation lands each
//! application near the paper's Table 3 characterization (base IPC, L2
//! accesses per kilo-instruction, high/low-load class) and so the
//! population's hot working sets straddle the 1-MB / 2-MB / 4-MB d-group
//! sizes the way Figures 7 and 8 require (a substantial drop in
//! fastest-d-group hits between 2-MB and 1-MB d-groups, a small one
//! between 4-MB and 2-MB).

use simbase::digest::{Hasher128, Knob, Tag, Variants};
use simbase::Capacity;

/// The paper's split of applications by L2 pressure (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadClass {
    /// Frequent L2 accesses; the class the paper's results focus on.
    HighLoad,
    /// Few L2 accesses; little opportunity for the L2 to matter.
    LowLoad,
}

/// Statistical profile of one synthetic benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BenchProfile {
    /// SPEC2K-style name.
    pub name: &'static str,
    /// High- or low-load class (Table 3).
    pub class: LoadClass,
    /// True for floating-point benchmarks.
    pub fp: bool,
    /// Fraction of instructions that are loads.
    pub load_frac: f64,
    /// Fraction of instructions that are stores.
    pub store_frac: f64,
    /// One branch every `branch_every` instructions.
    pub branch_every: u32,
    /// Per-site branch taken-bias (predictability knob).
    pub branch_bias: f64,
    /// Fraction of new-line draws that reuse a recently touched line
    /// (absorbed by the L1; the main APKI knob).
    pub l1_reuse: f64,
    /// Hot (heavily reused) data footprint.
    pub hot_footprint: Capacity,
    /// Fraction of non-reuse memory accesses that go to the hot region.
    pub hot_frac: f64,
    /// Total streaming footprint (cold, low-reuse traffic).
    pub stream_footprint: Capacity,
    /// Mean consecutive 32-B lines per streaming burst.
    pub spatial_run: u32,
    /// Fraction of loads whose value feeds the next instruction
    /// (pointer-chasing serialization).
    pub dep_load_frac: f64,
    /// Static code footprint (drives L1-I misses).
    pub code_footprint: Capacity,
}

impl BenchProfile {
    /// Fraction of instructions that touch memory.
    pub fn mem_frac(&self) -> f64 {
        self.load_frac + self.store_frac
    }
}

impl Variants for LoadClass {
    const ALL: &'static [Self] = &[Self::HighLoad, Self::LowLoad];
}

// Every field shapes the trace, so every knob is architectural.
simbase::knobs!(BenchProfile {
    name: Tag::Arch => &mut RosterName(name),
    class: Tag::Arch,
    fp: Tag::Arch,
    load_frac: Tag::Arch,
    store_frac: Tag::Arch,
    branch_every: Tag::Arch,
    branch_bias: Tag::Arch,
    l1_reuse: Tag::Arch,
    hot_footprint: Tag::Arch,
    hot_frac: Tag::Arch,
    stream_footprint: Tag::Arch,
    spatial_run: Tag::Arch,
    dep_load_frac: Tag::Arch,
    code_footprint: Tag::Arch,
});

/// A profile's name as a knob, perturbed to the next name on the roster.
struct RosterName<'a>(&'a mut &'static str);

impl Knob for RosterName<'_> {
    fn feed(&self, h: &mut Hasher128) {
        h.write_str(self.0);
    }

    fn perturb(&mut self) {
        let i = ROSTER.iter().position(|p| p.name == *self.0).unwrap_or(0);
        *self.0 = ROSTER[(i + 1) % ROSTER.len()].name;
    }
}

/// Builds the roster entry for `name`, if it is one of the 15 applications.
pub fn by_name(name: &str) -> Option<BenchProfile> {
    ROSTER.iter().copied().find(|p| p.name == name)
}

/// Names of the high-load applications, in the figures' order.
pub fn high_load() -> impl Iterator<Item = BenchProfile> {
    ROSTER.iter().copied().filter(|p| p.class == LoadClass::HighLoad)
}

/// Names of the low-load applications.
pub fn low_load() -> impl Iterator<Item = BenchProfile> {
    ROSTER.iter().copied().filter(|p| p.class == LoadClass::LowLoad)
}

macro_rules! kib {
    ($n:expr) => {
        Capacity::from_kib($n)
    };
}

/// The 15-application roster (Table 3).
///
/// Footprints are chosen so that, like the paper's population: most hot
/// working sets exceed 1 MB (hurting the 8-d-group NuRAPID) but fit in
/// 2 MB (helping the 4-d-group), `art` and `mcf` overflow even 2 MB, and
/// the low-load pair barely touches the L2.
pub const ROSTER: [BenchProfile; 15] = [
    BenchProfile {
        name: "applu",
        class: LoadClass::HighLoad,
        fp: true,
        load_frac: 0.26,
        store_frac: 0.09,
        branch_every: 24,
        branch_bias: 0.97,
        l1_reuse: 0.932,
        hot_footprint: kib!(1792),
        hot_frac: 0.87,
        stream_footprint: kib!(24 * 1024),
        spatial_run: 12,
        dep_load_frac: 0.12,
        code_footprint: kib!(40),
    },
    BenchProfile {
        name: "apsi",
        class: LoadClass::HighLoad,
        fp: true,
        load_frac: 0.25,
        store_frac: 0.10,
        branch_every: 20,
        branch_bias: 0.95,
        l1_reuse: 0.96,
        hot_footprint: kib!(1536),
        hot_frac: 0.88,
        stream_footprint: kib!(16 * 1024),
        spatial_run: 8,
        dep_load_frac: 0.15,
        code_footprint: kib!(48),
    },
    BenchProfile {
        name: "art",
        class: LoadClass::HighLoad,
        fp: true,
        load_frac: 0.30,
        store_frac: 0.07,
        branch_every: 12,
        branch_bias: 0.96,
        l1_reuse: 0.903,
        hot_footprint: kib!(3584),
        hot_frac: 0.85,
        stream_footprint: kib!(4 * 1024),
        spatial_run: 4,
        dep_load_frac: 0.25,
        code_footprint: kib!(24),
    },
    BenchProfile {
        name: "bzip2",
        class: LoadClass::HighLoad,
        fp: false,
        load_frac: 0.24,
        store_frac: 0.11,
        branch_every: 7,
        branch_bias: 0.88,
        l1_reuse: 0.968,
        hot_footprint: kib!(1280),
        hot_frac: 0.89,
        stream_footprint: kib!(8 * 1024),
        spatial_run: 10,
        dep_load_frac: 0.20,
        code_footprint: kib!(32),
    },
    BenchProfile {
        name: "equake",
        class: LoadClass::HighLoad,
        fp: true,
        load_frac: 0.33,
        store_frac: 0.08,
        branch_every: 16,
        branch_bias: 0.96,
        l1_reuse: 0.945,
        hot_footprint: kib!(1920),
        hot_frac: 0.87,
        stream_footprint: kib!(20 * 1024),
        spatial_run: 10,
        dep_load_frac: 0.30,
        code_footprint: kib!(32),
    },
    BenchProfile {
        name: "galgel",
        class: LoadClass::HighLoad,
        fp: true,
        load_frac: 0.29,
        store_frac: 0.07,
        branch_every: 18,
        branch_bias: 0.97,
        l1_reuse: 0.954,
        hot_footprint: kib!(1024),
        hot_frac: 0.9,
        stream_footprint: kib!(6 * 1024),
        spatial_run: 14,
        dep_load_frac: 0.10,
        code_footprint: kib!(40),
    },
    BenchProfile {
        name: "gcc",
        class: LoadClass::HighLoad,
        fp: false,
        load_frac: 0.25,
        store_frac: 0.13,
        branch_every: 5,
        branch_bias: 0.90,
        l1_reuse: 0.97,
        hot_footprint: kib!(1408),
        hot_frac: 0.88,
        stream_footprint: kib!(12 * 1024),
        spatial_run: 6,
        dep_load_frac: 0.22,
        code_footprint: kib!(56),
    },
    BenchProfile {
        name: "mcf",
        class: LoadClass::HighLoad,
        fp: false,
        load_frac: 0.31,
        store_frac: 0.09,
        branch_every: 6,
        branch_bias: 0.92,
        l1_reuse: 0.90,
        hot_footprint: kib!(5120),
        hot_frac: 0.8,
        stream_footprint: kib!(32 * 1024),
        spatial_run: 2,
        dep_load_frac: 0.45,
        code_footprint: kib!(20),
    },
    BenchProfile {
        name: "mgrid",
        class: LoadClass::HighLoad,
        fp: true,
        load_frac: 0.32,
        store_frac: 0.06,
        branch_every: 30,
        branch_bias: 0.98,
        l1_reuse: 0.951,
        hot_footprint: kib!(1664),
        hot_frac: 0.87,
        stream_footprint: kib!(28 * 1024),
        spatial_run: 16,
        dep_load_frac: 0.08,
        code_footprint: kib!(28),
    },
    BenchProfile {
        name: "parser",
        class: LoadClass::HighLoad,
        fp: false,
        load_frac: 0.23,
        store_frac: 0.11,
        branch_every: 6,
        branch_bias: 0.91,
        l1_reuse: 0.957,
        hot_footprint: kib!(1152),
        hot_frac: 0.89,
        stream_footprint: kib!(10 * 1024),
        spatial_run: 4,
        dep_load_frac: 0.35,
        code_footprint: kib!(64),
    },
    BenchProfile {
        name: "swim",
        class: LoadClass::HighLoad,
        fp: true,
        load_frac: 0.28,
        store_frac: 0.10,
        branch_every: 40,
        branch_bias: 0.99,
        l1_reuse: 0.947,
        hot_footprint: kib!(2048),
        hot_frac: 0.84,
        stream_footprint: kib!(30 * 1024),
        spatial_run: 20,
        dep_load_frac: 0.06,
        code_footprint: kib!(16),
    },
    BenchProfile {
        name: "twolf",
        class: LoadClass::HighLoad,
        fp: false,
        load_frac: 0.26,
        store_frac: 0.09,
        branch_every: 7,
        branch_bias: 0.89,
        l1_reuse: 0.953,
        hot_footprint: kib!(1344),
        hot_frac: 0.89,
        stream_footprint: kib!(4 * 1024),
        spatial_run: 3,
        dep_load_frac: 0.28,
        code_footprint: kib!(56),
    },
    BenchProfile {
        name: "vpr",
        class: LoadClass::HighLoad,
        fp: false,
        load_frac: 0.27,
        store_frac: 0.10,
        branch_every: 8,
        branch_bias: 0.90,
        l1_reuse: 0.96,
        hot_footprint: kib!(1216),
        hot_frac: 0.89,
        stream_footprint: kib!(6 * 1024),
        spatial_run: 4,
        dep_load_frac: 0.30,
        code_footprint: kib!(48),
    },
    BenchProfile {
        name: "lucas",
        class: LoadClass::LowLoad,
        fp: true,
        load_frac: 0.22,
        store_frac: 0.08,
        branch_every: 36,
        branch_bias: 0.98,
        l1_reuse: 0.981,
        hot_footprint: kib!(512),
        hot_frac: 0.93,
        stream_footprint: kib!(8 * 1024),
        spatial_run: 24,
        dep_load_frac: 0.05,
        code_footprint: kib!(16),
    },
    BenchProfile {
        name: "wupwise",
        class: LoadClass::LowLoad,
        fp: true,
        load_frac: 0.24,
        store_frac: 0.09,
        branch_every: 28,
        branch_bias: 0.98,
        l1_reuse: 0.987,
        hot_footprint: kib!(640),
        hot_frac: 0.94,
        stream_footprint: kib!(6 * 1024),
        spatial_run: 16,
        dep_load_frac: 0.08,
        code_footprint: kib!(24),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_fifteen_unique_apps() {
        assert_eq!(ROSTER.len(), 15);
        let mut names: Vec<_> = ROSTER.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "names must be unique");
    }

    #[test]
    fn class_split_matches_table3() {
        // 13 high-load, 2 low-load shown; the paper shows a high-load
        // focused subset.
        assert_eq!(high_load().count(), 13);
        assert_eq!(low_load().count(), 2);
    }

    #[test]
    fn by_name_finds_and_rejects() {
        assert!(by_name("mcf").is_some());
        assert!(by_name("doom3").is_none());
        assert_eq!(by_name("applu").unwrap().name, "applu");
    }

    #[test]
    fn fractions_are_sane() {
        for p in ROSTER {
            assert!(p.mem_frac() > 0.2 && p.mem_frac() < 0.5, "{}", p.name);
            assert!(p.branch_bias > 0.5 && p.branch_bias <= 1.0, "{}", p.name);
            assert!(p.l1_reuse >= 0.0 && p.l1_reuse < 1.0, "{}", p.name);
            assert!(p.hot_frac > 0.0 && p.hot_frac <= 1.0, "{}", p.name);
            assert!(p.spatial_run >= 1, "{}", p.name);
        }
    }

    #[test]
    fn hot_footprints_straddle_the_dgroup_sizes() {
        // Figures 7/8 need working sets that mostly exceed 1 MB but fit in
        // 2 MB, with a couple overflowing 2 MB.
        let over_1mb = ROSTER.iter().filter(|p| p.hot_footprint.bytes() > 1024 * 1024).count();
        let over_2mb = ROSTER.iter().filter(|p| p.hot_footprint.bytes() > 2 * 1024 * 1024).count();
        assert!(over_1mb >= 9, "most hot sets must exceed 1 MB ({over_1mb})");
        assert!((2..=4).contains(&over_2mb), "a few exceed 2 MB ({over_2mb})");
    }

    #[test]
    fn low_load_apps_have_high_l1_reuse() {
        for p in low_load() {
            assert!(p.l1_reuse > 0.9, "{} must rarely reach the L2", p.name);
        }
    }
}
