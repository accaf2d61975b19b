//! Hot-set pressure: why decoupling data placement from tag placement
//! matters (the paper's Section 2.1 argument, Figure 4 in miniature).
//!
//! A "hot set" is a cache set with more frequently-accessed blocks than
//! coupled placement can keep in the fastest d-group (2 ways per d-group
//! in an 8-way cache over 4 d-groups). This example hammers a few hot
//! sets and compares where the hits land.
//!
//! ```text
//! cargo run --release --example hot_set_pressure
//! ```

use nurapid_suite::nurapid::coupled::CoupledCache;
use nurapid_suite::nurapid::{NuRapidCache, NuRapidConfig};
use nurapid_suite::simbase::rng::SimRng;
use nurapid_suite::simbase::{AccessKind, BlockAddr, Cycle};

/// Drives a hot-set workload: 6 live blocks in each of 64 sets, touched
/// uniformly.
fn drive(mut access: impl FnMut(BlockAddr, Cycle) -> bool) {
    let sets = 8 * 1024 * 1024 / 128 / 8; // 8192 sets
    let mut rng = SimRng::seeded(7);
    let mut t = Cycle::ZERO;
    for _ in 0..200_000 {
        let set = rng.below(64);
        let way = rng.below(6);
        let block = BlockAddr::from_index(set + way * sets);
        access(block, t);
        t += 40;
    }
}

fn main() {
    let mut decoupled = NuRapidCache::new(NuRapidConfig::micro2003(4));
    decoupled.prefill();
    drive(|b, t| decoupled.access_block(b, AccessKind::Read, t).hit);

    let mut coupled = CoupledCache::micro2003(4);
    coupled.prefill();
    drive(|b, t| coupled.access_block(b, AccessKind::Read, t).hit);

    println!("64 hot sets x 6 live blocks, 200K accesses\n");
    println!("{:<28} {:>10} {:>10}", "", "coupled", "decoupled");
    for g in 0..4 {
        println!(
            "{:<28} {:>9.1}% {:>9.1}%",
            format!("hits in d-group {g}"),
            coupled.stats().group_access_frac(g) * 100.0,
            decoupled.stats().group_access_frac(g) * 100.0
        );
    }
    println!(
        "{:<28} {:>9.1}% {:>9.1}%",
        "misses",
        coupled.stats().miss_frac() * 100.0,
        decoupled.stats().miss_frac() * 100.0
    );
    println!(
        "\nCoupled placement can keep only 2 of the 6 hot blocks per set in\n\
         the fastest d-group; distance associativity keeps essentially all\n\
         of them there (paper Section 2.1)."
    );
    assert!(decoupled.stats().group_access_frac(0) > coupled.stats().group_access_frac(0));
}
