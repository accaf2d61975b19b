//! Differential properties: the flat-arena hot path vs the naive oracles.
//!
//! Each optimized structure in the per-access core ships with a reference
//! implementation (`memsys::naive`, `nurapid::naive`, `nuca::naive`,
//! `cpu::naive`) that
//! preserves the original, obviously-correct formulation: `Vec`-of-structs
//! entries, `Vec`-backed LRU orders, div/mod index math, per-access
//! allocation. These properties drive both sides with identical randomized
//! streams and require *bit-identical* observable behaviour — every return
//! value, every latency, every counter — not just statistical agreement.
//!
//! Failures shrink to a minimal counterexample and are appended to
//! `tests/differential-regressions.txt`, which is replayed first on every
//! run.

use cpu::naive::NaiveOooCore;
use cpu::uop::{MicroOp, OpClass};
use cpu::{CoreParams, OooCore};
use memsys::dramcache::{naive::NaiveL4, L4Config, L4DramCache};
use memsys::hierarchy::{BaseHierarchy, LevelParams};
use memsys::l1::CoreMemSystem;
use memsys::memory::MainMemory;
use memsys::naive::{NaiveLru, NaiveSetAssocCache};
use memsys::packed_lru::LruTable;
use memsys::setassoc::SetAssocCache;
use nuca::naive::NaiveDnucaCache;
use nuca::{DnucaCache, DnucaConfig, DnucaStats, SearchPolicy};
use nurapid::naive::{NaiveNuRapidCache, NaivePortSchedule, NaiveTagArray};
use nurapid::port::PortSchedule;
use nurapid::tag::{FramePtr, TagArray, TagRef};
use nurapid::{DistanceVictimPolicy, NuRapidCache, NuRapidConfig, PromotionPolicy};
use simbase::rng::SimRng;
use simbase::{AccessKind, Addr, BlockAddr, Capacity, Cycle};
use simkit::prop::{
    any_bool, any_u64, any_u8, checker, range_u32, range_u64, range_u8, select, vec_of, Checker,
    Gen, VecGen,
};

/// Replays the differential regression corpus before the random sweep.
fn dprop(name: &str) -> Checker {
    checker(name)
        .cases(64)
        .corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/differential-regressions.txt"))
}

/// A random access trace: (block index, is_write) pairs over a bounded
/// footprint.
fn trace(max_block: u64) -> VecGen<(simkit::prop::U64Range, simkit::prop::AnyBool)> {
    vec_of((range_u64(0, max_block), any_bool()), 1, 400)
}

fn small_config(n_dgroups: usize) -> NuRapidConfig {
    let mut c = NuRapidConfig::micro2003(n_dgroups);
    c.capacity = Capacity::from_mib(1);
    c.assoc = 4;
    c
}

fn kind_of(w: bool) -> AccessKind {
    if w {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// 1. The packed-u64 LRU table is indistinguishable from the naive
/// `Vec`-backed recency order: same victim after every touch, same full
/// way order and positions at the end — across both the nibble-packed
/// (assoc ≤ 16) and wide representations.
#[test]
fn packed_lru_matches_naive_lru() {
    let gen = (
        range_u32(1, 24),
        range_u64(1, 64),
        vec_of((range_u64(0, 63), range_u8(0, 31)), 1, 300),
    );
    dprop("packed_lru_matches_naive_lru").check(&gen, |(assoc, sets, ops)| {
        let (assoc, sets) = (*assoc, *sets as usize);
        let mut fast = LruTable::new(sets, assoc);
        let mut naive = NaiveLru::new(sets, assoc);
        for &(s, w) in ops {
            let set = s as usize % sets;
            let way = w as u32 % assoc;
            fast.touch(set, way);
            naive.touch(set, way);
            assert_eq!(fast.victim(set), naive.victim(set), "victim after touch");
        }
        for set in 0..sets {
            for pos in 0..assoc as usize {
                assert_eq!(fast.way_at(set, pos), naive.way_at(set, pos));
            }
            for way in 0..assoc {
                assert_eq!(fast.position_of(set, way), naive.position_of(set, way));
            }
        }
    });
}

/// 2. The struct-of-arrays set-associative directory agrees with the
/// naive array-of-structs one on every probe, access, fill (including the
/// eviction it reports), and invalidation, under LRU replacement.
#[test]
fn setassoc_matches_naive() {
    dprop("setassoc_matches_naive").check(&trace(4_096), |ops| {
        let cap = Capacity::from_kib(64); // 1024 blocks, 256 sets at 4-way
        let mut fast = SetAssocCache::new(cap, 64, 4);
        let mut naive = NaiveSetAssocCache::new(cap, 64, 4);
        for (i, &(b, w)) in ops.iter().enumerate() {
            let block = BlockAddr::from_index(b);
            assert_eq!(fast.probe(block), naive.probe(block), "probe of {block}");
            let looked = fast.access(block, kind_of(w));
            assert_eq!(looked, naive.access(block, kind_of(w)), "access of {block}");
            if !looked.is_hit() {
                assert_eq!(fast.fill(block, w), naive.fill(block, w), "fill of {block}");
            }
            if i % 7 == 3 {
                let victim = BlockAddr::from_index(b ^ 1);
                assert_eq!(
                    fast.invalidate(victim),
                    naive.invalidate(victim),
                    "invalidate of {victim}"
                );
            }
        }
        assert_eq!(fast.occupancy(), naive.occupancy());
    });
}

/// 3. The flat-meta tag array (packed valid/dirty/pointer words) matches
/// the naive entry-struct array: identical lookups, identical allocation
/// targets, and identical evictions under LRU pressure.
#[test]
fn tag_array_matches_naive() {
    let gen = (select(vec![2u32, 4, 8]), trace(2_048));
    dprop("tag_array_matches_naive").check(&gen, |(assoc, ops)| {
        let mut fast = TagArray::new(64, *assoc);
        let mut naive = NaiveTagArray::new(64, *assoc);
        for &(b, w) in ops {
            let block = BlockAddr::from_index(b);
            let looked = fast.access(block, kind_of(w));
            assert_eq!(looked, naive.access(block, kind_of(w)), "access of {block}");
            assert_eq!(fast.probe(block), naive.probe(block), "probe of {block}");
            if matches!(looked, nurapid::tag::TagLookup::Miss) {
                let ptr = FramePtr {
                    group: (b % 4) as u8,
                    frame: (b % 1_024) as u32,
                };
                assert_eq!(
                    fast.allocate(block, ptr, w),
                    naive.allocate(block, ptr, w),
                    "allocate of {block}"
                );
            }
        }
        assert_eq!(fast.occupancy(), naive.occupancy());
        for set in 0..64u32 {
            for way in 0..*assoc as u8 {
                let r = TagRef { set, way };
                assert_eq!(fast.block_at(r), naive.block_at(r));
                if fast.block_at(r).is_some() {
                    assert_eq!(fast.ptr_of(r), naive.ptr_of(r));
                }
            }
        }
    });
}

/// 4. The flat port schedule (moving-head buffer + binary-search skip)
/// grants exactly the same start times as the naive `VecDeque` scan on
/// quasi-monotonic request streams, including zero-length reservations.
#[test]
fn port_schedule_matches_naive() {
    let gen = vec_of((range_u64(0, 300), range_u64(0, 40)), 1, 400);
    dprop("port_schedule_matches_naive").check(&gen, |ops| {
        let mut fast = PortSchedule::new();
        let mut naive = NaivePortSchedule::new();
        let mut now = 0u64;
        for &(advance, dur) in ops {
            now += advance;
            let at = Cycle::new(now);
            assert_eq!(fast.reserve(at, dur), naive.reserve(at, dur), "reserve at {now} for {dur}");
            assert_eq!(fast.next_free(at), naive.next_free(at), "next_free at {now}");
        }
    });
}

/// 5. The full flat-arena NuRAPID cache is bit-identical to the naive
/// oracle: every access returns the same hit/miss, latency, and completion
/// time, and the final stats block compares equal field-for-field — across
/// every promotion policy, distance-victim policy, and d-group count.
#[test]
fn nurapid_flat_arena_matches_naive_oracle() {
    let gen = (
        trace(30_000),
        select(vec![2usize, 4, 8]),
        select(vec![
            PromotionPolicy::DemotionOnly,
            PromotionPolicy::NextFastest,
            PromotionPolicy::Fastest,
        ]),
        select(vec![
            DistanceVictimPolicy::Random,
            DistanceVictimPolicy::Lru,
            DistanceVictimPolicy::ClockApprox,
        ]),
        any_bool(),
    );
    dprop("nurapid_flat_arena_matches_naive_oracle").check(
        &gen,
        |(ops, n_dgroups, promo, victim, prefill)| {
            let cfg = small_config(*n_dgroups).with_promotion(*promo).with_distance_victim(*victim);
            let mut fast = NuRapidCache::new(cfg.clone());
            let mut naive = NaiveNuRapidCache::new(cfg);
            if *prefill {
                fast.prefill();
                naive.prefill();
            }
            let mut t = Cycle::ZERO;
            for &(b, w) in ops {
                let block = BlockAddr::from_index(b);
                let out = fast.access_block(block, kind_of(w), t);
                assert_eq!(
                    out,
                    naive.access_block(block, kind_of(w), t),
                    "outcome of {block} at {t}"
                );
                t = out.complete_at + 1;
            }
            fast.check_invariants();
            assert_eq!(fast.stats(), naive.stats(), "final stats diverged");
            assert_eq!(fast.memory_accesses(), naive.memory_accesses());
        },
    );
}

/// A set-confined trace for the NUCA oracles: indices over 2 sets × 20
/// tags, which [`nuca_ops`] maps to blocks `set + 4096·tag` (the
/// evaluation D-NUCA has 4 096 sets). The wide trace spreads its ops over
/// every set and almost never re-touches a block; this one keeps 40 blocks
/// competing for 16 ways, so hits, bubble swaps, memo hits, position-0
/// decompressions and promotion refusals all occur.
fn hot_trace() -> VecGen<(simkit::prop::U64Range, simkit::prop::AnyBool)> {
    vec_of((range_u64(0, 2 * 20), any_bool()), 1, 1_200)
}

/// The ops of one NUCA case: the hot trace's blocks when `hot`, else the
/// wide trace as drawn.
fn nuca_ops(hot: bool, wide: &[(u64, bool)], hot_ops: &[(u64, bool)]) -> Vec<(u64, bool)> {
    if hot {
        hot_ops.iter().map(|&(i, w)| (i % 2 + 4_096 * (i / 2), w)).collect()
    } else {
        wide.to_vec()
    }
}

/// Drives the flat-arena D-NUCA cache and its naive oracle through `ops`,
/// asserting identical outcomes and final stats; returns the stats.
fn dnuca_against_oracle(ops: &[(u64, bool)], cfg: DnucaConfig, prefill: bool) -> DnucaStats {
    let mut fast = DnucaCache::new(cfg.clone());
    let mut naive = NaiveDnucaCache::new(cfg);
    if prefill {
        fast.prefill();
        naive.prefill();
    }
    let mut t = Cycle::ZERO;
    for &(b, w) in ops {
        let block = BlockAddr::from_index(b);
        let out = fast.access_block(block, kind_of(w), t);
        assert_eq!(out, naive.access_block(block, kind_of(w), t), "outcome of {block} at {t}");
        t = out.complete_at + 1;
    }
    assert_eq!(fast.stats(), naive.stats(), "final stats diverged");
    assert_eq!(fast.memory_accesses(), naive.memory_accesses());
    fast.stats().clone()
}

/// Drives the compressed-NUCA cache and its naive oracle through `ops`,
/// every eleventh op on the warm functional path, asserting identical
/// outcomes and final stats; returns the stats.
fn cnuca_against_oracle(ops: &[(u64, bool)], prefill: bool, comp_seed: u64) -> DnucaStats {
    let mut cfg = nuca::CnucaConfig::micro2003();
    cfg.comp_seed = comp_seed;
    let mut fast = DnucaCache::compressed(cfg);
    let mut naive = nuca::naive::NaiveCnucaCache::new(cfg);
    if prefill {
        fast.prefill();
        naive.prefill();
    }
    let mut t = Cycle::ZERO;
    for (i, &(b, w)) in ops.iter().enumerate() {
        let block = BlockAddr::from_index(b);
        if i % 11 == 5 {
            // The warm path must take the same architectural
            // transitions as the timed one.
            fast.warm_access_block(block, kind_of(w));
            naive.warm_access_block(block, kind_of(w));
            continue;
        }
        let out = fast.access_block(block, kind_of(w), t);
        assert_eq!(out, naive.access_block(block, kind_of(w), t), "outcome of {block} at {t}");
        t = out.complete_at + 1;
    }
    assert_eq!(fast.stats(), naive.stats(), "final stats diverged");
    assert_eq!(fast.memory_accesses(), naive.memory_accesses());
    fast.stats().clone()
}

/// 6. The struct-of-arrays D-NUCA cache (packed smart-search bytes, bank
/// lookup table, branchless LRU scan) is bit-identical to the naive
/// oracle under all three search policies, on the wide trace or the hot
/// one. Besides the evaluation geometry it draws a 1-MB, 2-way one with
/// a single bank position and the same 4 096 sets. Only there can a miss
/// evict the way the memo remembers: with more positions every hit
/// promotes its block out of the slowest one, where misses evict.
#[test]
fn dnuca_flat_arena_matches_naive_oracle() {
    let gen = (
        any_bool(),
        trace(200_000),
        hot_trace(),
        select(vec![
            SearchPolicy::SsPerformance,
            SearchPolicy::SsEnergy,
            SearchPolicy::WayMemo,
        ]),
        any_bool(),
        any_bool(),
    );
    dprop("dnuca_flat_arena_matches_naive_oracle").check(
        &gen,
        |(hot, wide, hot_ops, policy, one_position, prefill)| {
            let mut cfg = DnucaConfig::micro2003(*policy);
            if *one_position {
                cfg.capacity = Capacity::from_mib(1);
                cfg.assoc = 2;
                cfg.n_banks = 16;
                cfg.n_positions = 1;
            }
            dnuca_against_oracle(&nuca_ops(*hot, wide, hot_ops), cfg, *prefill);
        },
    );
}

/// 7. The compressed-NUCA cache (half-frame fast ways, address-seeded
/// compressibility, distance-associative promotion, decompression
/// latency) is bit-identical to its naive oracle, including the warm
/// functional path interleaved with timed accesses, on the wide trace or
/// the hot one.
#[test]
fn cnuca_matches_naive_oracle() {
    let gen = (any_bool(), trace(200_000), hot_trace(), any_bool(), any_u64());
    dprop("cnuca_matches_naive_oracle").check(&gen, |(hot, wide, hot_ops, prefill, seed)| {
        // Vary the architectural seed so the compressibility partition
        // itself is exercised, not one fixed classification.
        cnuca_against_oracle(&nuca_ops(*hot, wide, hot_ops), *prefill, *seed);
    });
}

/// The hot trace reaches every NUCA path properties 6 and 7 compare: on
/// one fixed-seed case, hits, bubble swaps, way-memo hits,
/// decompressions and promotion refusals are all nonzero.
#[test]
fn nuca_hot_trace_reaches_every_path() {
    let hot_ops = hot_trace().generate(&mut SimRng::seeded(0x5eed_0024));
    let ops = nuca_ops(true, &[], &hot_ops);
    let (mut hits, mut swaps, mut memo_hits) = (0, 0, 0);
    for policy in [
        SearchPolicy::SsPerformance,
        SearchPolicy::SsEnergy,
        SearchPolicy::WayMemo,
    ] {
        let s = dnuca_against_oracle(&ops, DnucaConfig::micro2003(policy), false);
        hits += s.accesses.get() - s.misses.get();
        swaps += s.swaps.get();
        memo_hits += s.memo_hits.get();
    }
    let c = cnuca_against_oracle(&ops, false, nuca::CnucaConfig::micro2003().comp_seed);
    hits += c.accesses.get() - c.misses.get();
    swaps += c.swaps.get();
    let counts = [
        ("hits", hits),
        ("swaps", swaps),
        ("memo hits", memo_hits),
        ("decompressions", c.decompressions.get()),
        ("promotion refusals", c.promotion_refusals.get()),
    ];
    for (what, n) in counts {
        assert!(n > 0, "the hot trace produced no {what} ({counts:?})");
    }
}

/// 8. The L4 DRAM-cache tier (sorted consistent-hash ring, flat tag
/// arena, packed LRU words, direct-mapped tag cache) is bit-identical to
/// its naive oracle — every fill/writeback completion cycle, warm-path
/// transition, residency/dirty answer, stats field, and downstream DRAM
/// channel cycle — including access sequences straddling two live
/// resizes at one- and two-thirds of the stream.
#[test]
fn l4_dram_cache_matches_naive_oracle() {
    let gen = (
        trace(4_096),
        range_u32(1, 6),  // initial banks
        range_u32(1, 10), // first mid-stream resize target
        range_u32(1, 10), // second mid-stream resize target
        any_u64(),        // ring hash seed
    );
    dprop("l4_dram_cache_matches_naive_oracle").check(&gen, |(ops, banks, t1, t2, seed)| {
        // A deliberately tiny tier (16 sets x 4 ways per bank, 16
        // tag-cache slots) so 400 ops create evictions, dirty victims,
        // tag-cache conflicts, and resize flush traffic.
        let mut cfg = L4Config::tdram();
        cfg.n_banks = *banks;
        cfg.bank_blocks = 64;
        cfg.assoc = 4;
        cfg.vnodes_per_bank = 8;
        cfg.hash_seed = *seed;
        cfg.tag_cache_entries = 16;
        let mut fast = L4DramCache::new(cfg.clone());
        let mut naive = NaiveL4::new(cfg.clone());
        let mut fast_dram = MainMemory::micro2003();
        let mut naive_dram = MainMemory::micro2003();
        let (r1, r2) = (ops.len() / 3, ops.len() * 2 / 3);
        let mut t = Cycle::ZERO;
        for (i, &(b, w)) in ops.iter().enumerate() {
            if (i == r1 && r1 != r2) || i == r2 {
                let target = if i == r1 { *t1 } else { *t2 };
                assert_eq!(
                    fast.resize(target, t, &mut fast_dram),
                    naive.resize(target, t, &mut naive_dram),
                    "resize to {target} at {t}"
                );
                assert_eq!(fast.n_banks(), naive.n_banks());
            }
            let block = BlockAddr::from_index(b);
            if i % 13 == 7 {
                // Warm-up path: architectural transitions, no timing.
                if w {
                    fast.warm_writeback(block);
                    naive.warm_writeback(block);
                } else {
                    fast.warm_fill(block);
                    naive.warm_fill(block);
                }
            } else {
                let done = if w {
                    fast.writeback(block, cfg.block_bytes, t, &mut fast_dram)
                } else {
                    fast.fill(block, cfg.block_bytes, t, &mut fast_dram)
                };
                let oracle = if w {
                    naive.writeback(block, cfg.block_bytes, t, &mut naive_dram)
                } else {
                    naive.fill(block, cfg.block_bytes, t, &mut naive_dram)
                };
                assert_eq!(done, oracle, "completion of {block} at {t}");
                t = done + 1;
            }
            assert_eq!(fast.resident(block), naive.resident(block), "residency of {block}");
            assert_eq!(fast.is_dirty(block), naive.is_dirty(block), "dirtiness of {block}");
        }
        assert_eq!(fast.stats(), naive.stats(), "final stats diverged");
        assert_eq!(fast_dram.busy_cycles(), naive_dram.busy_cycles(), "DRAM channel diverged");
    });
}

/// A base hierarchy small enough that the core tests' footprints miss in
/// every level.
fn small_hierarchy() -> BaseHierarchy {
    let level = |kib, latency| LevelParams {
        capacity: Capacity::from_kib(kib),
        assoc: 4,
        latency,
    };
    BaseHierarchy::new(level(64, 11), level(256, 43), 128)
}

/// Turns drawn `(class, dep1, dep2, addr, flags)` tuples into a trace.
///
/// - **Classes.** A class draw of 0 is a branch, so redirects are rare
///   enough for the window to fill. Draws 1..=`mem_share` alternate
///   loads and stores and the rest cycle through the four ALU classes.
///   Traces below half memory ops fill the RUU first, traces above it
///   the LSQ, so both bounds bind.
/// - **PC.** It loops through a 1-KB block, so fetch mostly hits the
///   I-cache. A taken branch (flag bit 0) jumps within the block, or,
///   when address bit 15 is set, into a 256-KB code footprint.
/// - **Data.** Flag bits 1..=2 place an address: a quarter spread over
///   2 MB (L1 misses, MSHR-full stalls), a quarter on eight hot lines
///   (MSHR merges), and half in a 16-KB set that stays L1-resident.
fn micro_ops(drawn: &[(u8, u8, u8, u64, u8)], mem_share: u8) -> Vec<MicroOp> {
    const ALU: [OpClass; 4] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
    ];
    let mut pc = 0u64;
    drawn
        .iter()
        .map(|&(c, dep1, dep2, a, flags)| {
            let class = match c {
                0 => OpClass::Branch,
                _ if c > mem_share => ALU[usize::from(c % 4)],
                _ if c % 2 == 0 => OpClass::Load,
                _ => OpClass::Store,
            };
            let taken = flags & 1 == 1;
            let line = match flags >> 1 {
                0 => a,
                1 => a % 8,
                _ => a % 512,
            };
            let op = MicroOp {
                class,
                pc: Addr::new(pc),
                mem_addr: class.is_mem().then(|| Addr::new(line * 32)),
                dep1,
                dep2,
                taken,
            };
            pc = match (class == OpClass::Branch && taken, a & 0x8000 != 0) {
                (true, true) => (a & 0x7fff) * 8,
                (true, false) => (pc & !1023) | ((a % 256) * 4),
                (false, _) => (pc & !1023) | ((pc + 4) & 1023),
            };
            op
        })
        .collect()
}

/// 9. The ring-indexed out-of-order core (no queues, select-based slot
/// bookkeeping, packed functional-unit occupancy) commits every op at
/// the same cycle as the naive `VecDeque` core, under the paper's
/// configuration and an odd one (a narrow machine with one unit per
/// pool and a non-power-of-two RUU and LSQ). Dependency distances are
/// uniform over the whole `u8` range, so sources beyond the window and
/// beyond the first op both occur; the footprint forces L1 misses, MSHR
/// merges and MSHR-full stalls; branch outcomes are random. The results
/// must also agree across a drain barrier in mid-trace.
#[test]
fn ooo_core_matches_naive_oracle() {
    let op = (range_u8(0, 32), any_u8(), any_u8(), range_u64(0, 1 << 16), range_u8(0, 8));
    let gen = (vec_of(op, 1, 1_200), range_u8(4, 32));
    let odd = CoreParams {
        width: 3,
        ruu_entries: 48,
        lsq_entries: 24,
        int_alus: 1,
        int_muls: 1,
        fp_alus: 1,
        fp_muls: 1,
        mem_ports: 1,
        ..CoreParams::micro2003()
    };
    dprop("ooo_core_matches_naive_oracle")
        .cases(256)
        .check(&gen, |(drawn, mem_share)| {
            let ops = micro_ops(drawn, *mem_share);
            for params in [CoreParams::micro2003(), odd] {
                let mut fast = OooCore::new(params, CoreMemSystem::micro2003(small_hierarchy()));
                let mut naive =
                    NaiveOooCore::new(params, CoreMemSystem::micro2003(small_hierarchy()));
                let barrier_at = ops.len() / 2;
                for (i, op) in ops.iter().enumerate() {
                    if i == barrier_at {
                        assert_eq!(fast.finish(), naive.finish(), "before the barrier");
                        let drain = |l: &mut BaseHierarchy| {
                            l.drain_timing();
                            l.reset_stats();
                        };
                        fast = fast.drain_barrier(drain);
                        naive = naive.drain_barrier(drain);
                        assert_eq!(fast.finish(), naive.finish(), "after the barrier");
                    }
                    fast.execute(*op);
                    naive.execute(*op);
                    assert_eq!(fast.cycles(), naive.cycles(), "{params:?}: op {i} {op:?}");
                }
                assert_eq!(fast.finish(), naive.finish(), "{params:?}: final result");
            }
        });
}
