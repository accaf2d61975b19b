//! Property-based tests on the core invariants (DESIGN.md §9), running on
//! the in-tree `simkit` engine — no external test dependencies.
//!
//! Each property replays the regression corpus first (including the legacy
//! `properties.proptest-regressions` file, whose digests are folded into
//! deterministic replay seeds), then a fixed, name-seeded random sweep.
//! A failure prints a shrunk counterexample and a `SIMKIT_SEED=0x...`
//! replay command, and is appended to `tests/simkit-regressions.txt`.

use memsys::bankq::{BankQueue, BankQueueParams, BankQueues};
use memsys::lower::LowerCache;
use memsys::replacement::{PolicyKind, SetPolicy};
use nuca::{DnucaCache, DnucaConfig, SearchPolicy};
use nurapid::coupled::CoupledCache;
use nurapid::port::PortSchedule;
use nurapid::{DistanceVictimPolicy, NuRapidCache, NuRapidConfig, PromotionPolicy};
use simbase::{AccessKind, BlockAddr, Capacity, Cycle};
use simkit::prop::{
    any_bool, any_u64, any_u8, checker, range_u32, range_u64, range_u8, select, vec_of, Checker,
    VecGen,
};

/// Every property replays both corpus files before its random sweep: the
/// new simkit-native file (written on failure) and the legacy proptest one.
fn prop(name: &str) -> Checker {
    checker(name)
        .cases(64)
        .corpus(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/simkit-regressions.txt"
        ))
        .corpus(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/properties.proptest-regressions"
        ))
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

fn run_nurapid(cfg: NuRapidConfig, ops: &[(u64, bool)]) -> NuRapidCache {
    let mut cache = NuRapidCache::new(cfg);
    let mut t = Cycle::ZERO;
    for &(b, w) in ops {
        let kind = if w { AccessKind::Write } else { AccessKind::Read };
        let out = cache.access_block(BlockAddr::from_index(b), kind, t);
        t = out.complete_at + 1;
    }
    cache
}

/// 1. The tag/data bijection holds after any access sequence, for every
/// d-group count and policy combination.
#[test]
fn tag_data_bijection_holds() {
    let gen = (
        trace(30_000),
        select(vec![2usize, 4, 8]),
        select(vec![
            PromotionPolicy::DemotionOnly,
            PromotionPolicy::NextFastest,
            PromotionPolicy::Fastest,
        ]),
        select(vec![DistanceVictimPolicy::Random, DistanceVictimPolicy::Lru]),
    );
    prop("tag_data_bijection_holds").check(&gen, |(ops, n_dgroups, promo, victim)| {
        let cfg = small_config(*n_dgroups)
            .with_promotion(*promo)
            .with_distance_victim(*victim);
        let cache = run_nurapid(cfg, ops);
        cache.check_invariants();
    });
}

/// 2. Distance replacement never evicts: after touching fewer distinct
/// blocks than the cache holds (without set conflicts beyond the
/// associativity), every touched block still hits.
#[test]
fn distance_replacement_never_evicts() {
    prop("distance_replacement_never_evicts").check(&trace(6_000), |seed_ops| {
        // 1-MB cache, 4-way, 2048 sets: a footprint of 6000 distinct
        // blocks puts at most ceil(6000/2048)=3 blocks in each set — under
        // the associativity, so data replacement never fires and only
        // distance replacement moves blocks.
        let mut cache = NuRapidCache::new(small_config(4));
        let mut t = Cycle::ZERO;
        let mut touched = std::collections::BTreeSet::new();
        for &(b, w) in seed_ops {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let out = cache.access_block(BlockAddr::from_index(b), kind, t);
            t = out.complete_at + 1;
            touched.insert(b);
        }
        for &b in &touched {
            let out = cache.access_block(BlockAddr::from_index(b), AccessKind::Read, t);
            assert!(out.hit, "block {b} was lost without eviction pressure");
            t = out.complete_at + 1;
        }
        cache.check_invariants();
    });
}

/// 3. Miss counts are identical across promotion policies and
/// distance-victim policies (they only move data, never evict).
#[test]
fn miss_count_policy_invariance() {
    prop("miss_count_policy_invariance").check(&trace(40_000), |ops| {
        let count = |cfg: NuRapidConfig| run_nurapid(cfg, ops).stats().misses.get();
        let reference = count(small_config(4));
        assert_eq!(
            count(small_config(4).with_promotion(PromotionPolicy::DemotionOnly)),
            reference
        );
        assert_eq!(
            count(small_config(4).with_promotion(PromotionPolicy::Fastest)),
            reference
        );
        assert_eq!(
            count(small_config(4).with_distance_victim(DistanceVictimPolicy::Lru)),
            reference
        );
    });
}

/// 4. Hits + misses equals accesses, and group-hit totals equal hits.
#[test]
fn accounting_identities() {
    prop("accounting_identities").check(&trace(20_000), |ops| {
        let cache = run_nurapid(small_config(4), ops);
        let s = cache.stats();
        assert_eq!(s.group_hits.total() + s.misses.get(), s.accesses.get());
        assert_eq!(s.tag_probes.get(), s.accesses.get());
        // Every promotion and demotion is one read and one write somewhere.
        assert!(s.group_writes.total() >= s.total_moves());
    });
}

/// 5. D-NUCA's smart-search candidates are a superset of the true
/// location: a resident block is never missed because of the ss array.
#[test]
fn dnuca_smart_search_never_causes_false_misses() {
    prop("dnuca_smart_search_never_causes_false_misses").check(&trace(50_000), |ops| {
        let mut cache = DnucaCache::new(DnucaConfig::micro2003(SearchPolicy::SsEnergy));
        let mut t = Cycle::ZERO;
        let mut resident = std::collections::BTreeSet::new();
        let mut false_miss = false;
        for &(b, w) in ops {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let out = cache.access(BlockAddr::from_index(b), kind, t);
            if resident.contains(&b) && !out.hit {
                false_miss = true;
            }
            // Track residency conservatively: a fill may evict another
            // block, so only blocks accessed twice in a row are asserted.
            resident.clear();
            resident.insert(b);
            t = out.complete_at + 1;
        }
        assert!(!false_miss, "smart search produced a false miss");
    });
}

/// 6. D-NUCA conserves capacity: hits plus misses equals accesses and the
/// position-hit histogram sums to the hit count.
#[test]
fn dnuca_accounting() {
    prop("dnuca_accounting").check(&trace(20_000), |ops| {
        let mut cache = DnucaCache::new(DnucaConfig::micro2003(SearchPolicy::SsPerformance));
        let mut t = Cycle::ZERO;
        for &(b, w) in ops {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let out = cache.access(BlockAddr::from_index(b), kind, t);
            t = out.complete_at + 1;
        }
        let s = cache.stats();
        assert_eq!(s.position_hits.total() + s.misses.get(), s.accesses.get());
        assert_eq!(s.ss_accesses.get(), s.accesses.get());
    });
}

fn assert_port_reservations_disjoint(reqs: &[(u64, u64)]) {
    let mut port = PortSchedule::new();
    let mut granted: Vec<(u64, u64)> = Vec::new();
    for (i, &(jitter, dur)) in reqs.iter().enumerate() {
        let at = i as u64 * 15 + jitter;
        let start = port.reserve(Cycle::new(at), dur);
        assert!(start.raw() >= at, "granted before requested");
        granted.push((start.raw(), start.raw() + dur));
    }
    granted.sort_unstable();
    for w in granted.windows(2) {
        assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
    }
}

/// 7. Port reservations never overlap and never start before requested,
/// for quasi-monotonic request times (the out-of-order core's issue
/// times wander by at most a window's worth of cycles — far less than
/// the schedule's 4096-cycle pruning lag).
#[test]
fn port_reservations_are_disjoint() {
    let gen = vec_of((range_u64(0, 300), range_u64(1, 40)), 1, 200);
    prop("port_reservations_are_disjoint").check(&gen, |reqs| {
        assert_port_reservations_disjoint(reqs);
    });
}

/// 8. The shrunk counterexample proptest recorded in
/// `properties.proptest-regressions` (`cc 587c7486...`), pinned verbatim:
/// a large out-of-order jitter between two early requests once broke the
/// disjointness of port grants. Kept as an explicit regression because the
/// legacy digest cannot be mapped back to a generator case without
/// proptest itself.
#[test]
fn port_reservations_proptest_regression_case() {
    assert_port_reservations_disjoint(&[(178, 8), (4282, 1), (161, 18)]);
}

/// 9. Coupled and decoupled placement share the tag organization, so
/// their miss streams are identical on any trace.
#[test]
fn coupled_and_decoupled_miss_identically() {
    prop("coupled_and_decoupled_miss_identically").check(&trace(40_000), |ops| {
        let decoupled = run_nurapid(small_config(4), ops);
        let mut coupled = CoupledCache::new(Capacity::from_mib(1), 4, 4);
        let mut t = Cycle::ZERO;
        for &(b, w) in ops {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let out = coupled.access_block(BlockAddr::from_index(b), kind, t);
            t = out.complete_at + 1;
        }
        assert_eq!(coupled.stats().misses.get(), decoupled.stats().misses.get());
    });
}

/// 10. Tree PLRU never victimizes the way touched most recently.
#[test]
fn tree_plru_spares_the_mru_way() {
    prop("tree_plru_spares_the_mru_way").check(&vec_of(range_u32(0, 8), 1, 200), |touches| {
        let mut p = SetPolicy::new(PolicyKind::TreePlru, 1, 8, simbase::rng::SimRng::seeded(1));
        for &w in touches {
            p.touch(0, w);
            assert_ne!(p.victim(0), w);
        }
    });
}

/// 11. Trace encoding round-trips arbitrary well-formed micro-ops.
#[test]
fn trace_records_roundtrip() {
    use cpu::uop::{MicroOp, OpClass};
    use workloads::tracefile::{read_op, write_op};
    let gen = vec_of(
        (
            range_u8(0, 7),
            any_u8(),
            any_u8(),
            any_bool(),
            any_u64(),
            any_u64(),
        ),
        1,
        100,
    );
    prop("trace_records_roundtrip").check(&gen, |ops| {
        let classes = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::FpAlu,
            OpClass::FpMul,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
        ];
        let originals: Vec<MicroOp> = ops
            .iter()
            .map(|&(c, d1, d2, taken, pc, addr)| {
                let class = classes[c as usize];
                MicroOp {
                    class,
                    pc: simbase::Addr::new(pc),
                    mem_addr: class.is_mem().then_some(simbase::Addr::new(addr)),
                    dep1: d1,
                    dep2: d2,
                    taken,
                }
            })
            .collect();
        let mut buf = Vec::new();
        for op in &originals {
            write_op(&mut buf, op);
        }
        let mut cursor = buf.as_slice();
        for want in &originals {
            assert_eq!(&read_op(&mut cursor).unwrap(), want);
        }
        assert!(cursor.is_empty());
    });
}

/// 12. Completion times never precede request times, in any organization.
#[test]
fn time_flows_forward() {
    prop("time_flows_forward").check(&trace(10_000), |ops| {
        let mut nurapid = NuRapidCache::new(small_config(2));
        let mut dnuca = DnucaCache::new(DnucaConfig::micro2003(SearchPolicy::SsEnergy));
        let mut base = memsys::hierarchy::BaseHierarchy::micro2003();
        let mut t = Cycle::ZERO;
        for &(b, w) in ops {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let block = BlockAddr::from_index(b);
            for out in [
                nurapid.access_block(block, kind, t),
                dnuca.access(block, kind, t),
                LowerCache::access(&mut base, block, kind, t),
            ] {
                assert!(out.complete_at > t);
            }
            t += 3;
        }
    });
}

/// 13. The compressibility model is a pure function of (seed, address):
/// sizes come from the fixed class ladder and never exceed the frame,
/// repeated queries agree, the compressible predicate is exactly the
/// half-frame cut, and decompression latency is zero precisely for raw
/// blocks (never negative — it is `decomp_cycles` or nothing).
#[test]
fn compress_model_is_pure_and_bounded() {
    use cachemodel::catalog::BLOCK_BYTES;
    use nuca::CompressModel;
    let gen = (any_u64(), range_u64(0, 30), vec_of(any_u64(), 1, 200));
    prop("compress_model_is_pure_and_bounded").check(&gen, |(seed, decomp, addrs)| {
        let model = CompressModel::new(*seed);
        for &a in addrs {
            let block = BlockAddr::from_index(a);
            let bytes = model.compressed_bytes(block);
            assert!(
                [16, 32, 64, BLOCK_BYTES].contains(&bytes),
                "unknown size class {bytes}"
            );
            assert!(bytes <= BLOCK_BYTES, "compression must never expand");
            assert_eq!(bytes, model.compressed_bytes(block), "not idempotent");
            assert_eq!(model.is_compressible(block), bytes * 2 <= BLOCK_BYTES);
            let lat = model.decompress_cycles(block, *decomp);
            assert_eq!(lat, if model.is_compressible(block) { *decomp } else { 0 });
        }
    });
}

/// 14. Way memoization is an energy policy, not an architectural one: on
/// any trace its hit/miss stream and miss count equal the smart-search
/// policies', and every memo hit skips the smart-search probe — the
/// stats obey `ss_accesses + memo_hits = accesses` exactly, with one
/// memo lookup per access.
#[test]
fn way_memo_skips_probes_without_changing_transitions() {
    prop("way_memo_skips_probes_without_changing_transitions").check(
        &trace(100_000),
        |ops| {
            let run = |policy| {
                let mut c = DnucaCache::new(DnucaConfig::micro2003(policy));
                let mut t = Cycle::ZERO;
                let mut hits = Vec::with_capacity(ops.len());
                for &(b, w) in ops {
                    let kind = if w { AccessKind::Write } else { AccessKind::Read };
                    let out = c.access(BlockAddr::from_index(b), kind, t);
                    hits.push(out.hit);
                    t = out.complete_at + 1;
                }
                (hits, c)
            };
            let (hits_perf, _) = run(SearchPolicy::SsPerformance);
            let (hits_memo, memo) = run(SearchPolicy::WayMemo);
            assert_eq!(hits_perf, hits_memo, "policy changed the hit/miss stream");
            let s = memo.stats();
            assert_eq!(s.memo_lookups.get(), s.accesses.get());
            assert_eq!(
                s.ss_accesses.get() + s.memo_hits.get(),
                s.accesses.get(),
                "every memo hit must skip exactly one smart-search probe"
            );
        },
    );
}

/// 16. An idle bank is free: arrivals spaced at least one service
/// interval apart never find the bank busy, so the queue model charges
/// zero delay and counts zero conflicts — contention only ever comes
/// from genuine bandwidth oversubscription, never from the model itself.
#[test]
fn bank_queue_spaced_arrivals_are_free() {
    let gen = (range_u64(1, 16), vec_of(range_u64(0, 100), 1, 200));
    prop("bank_queue_spaced_arrivals_are_free").check(&gen, |(service, extras)| {
        let mut b = BankQueue::new(BankQueueParams {
            service_cycles: *service,
            max_delay: 64,
        });
        let mut t = 0u64;
        for &extra in extras {
            assert_eq!(b.occupy(Cycle::new(t)), 0, "idle bank charged a delay");
            t += *service + extra;
        }
        assert_eq!((b.conflicts(), b.stall_cycles()), (0, 0));
        assert_eq!(b.accesses(), extras.len() as u64);
    });
}

/// 17. Delay is monotone non-decreasing with load: within a same-cycle
/// burst the k-th access waits exactly k service intervals, capped at
/// `max_delay`, and the charged stall cycles account for every delay.
#[test]
fn bank_queue_delay_is_monotone_in_load() {
    let gen = (range_u64(1, 16), range_u64(1, 128), range_u64(2, 40));
    prop("bank_queue_delay_is_monotone_in_load").check(&gen, |(service, max_delay, burst)| {
        let mut b = BankQueue::new(BankQueueParams {
            service_cycles: *service,
            max_delay: *max_delay,
        });
        let mut last = 0u64;
        let mut total = 0u64;
        for k in 0..*burst {
            let d = b.occupy(Cycle::new(0));
            assert!(d >= last, "delay shrank as load grew");
            assert_eq!(d, (k * service).min(*max_delay), "burst delay is k·service, capped");
            last = d;
            total += d;
        }
        assert_eq!(b.stall_cycles(), total);
        assert_eq!(b.conflicts(), *burst - 1, "all but the burst head conflict");
    });
}

/// 18. The bank array is a pure function of its traffic: two identical
/// arrays fed the same (block, arrival) trace charge identical delays
/// and counters, every delay respects the bound, and the drain barrier
/// leaves the banks idle without touching the counters.
#[test]
fn bank_queues_are_deterministic_and_account_exactly() {
    let gen = (
        select(vec![1usize, 2, 4, 32]),
        vec_of((range_u64(0, 4_096), range_u64(0, 12)), 1, 300),
    );
    prop("bank_queues_are_deterministic_and_account_exactly").check(&gen, |(n_banks, ops)| {
        let params = BankQueueParams::micro2003(128);
        let mut a = BankQueues::new(*n_banks, params);
        let mut b = BankQueues::new(*n_banks, params);
        let mut t = 0u64;
        let (mut sum, mut n_conflicts) = (0u64, 0u64);
        for &(blk, dt) in ops {
            t += dt;
            let block = BlockAddr::from_index(blk);
            let da = a.occupy(block, Cycle::new(t));
            let db = b.occupy(block, Cycle::new(t));
            assert_eq!(da, db, "identical bank arrays diverged on identical traffic");
            assert!(da <= params.max_delay);
            sum += da;
            n_conflicts += u64::from(da > 0);
        }
        assert_eq!(a.stall_cycles(), sum);
        assert_eq!(a.conflicts(), n_conflicts);
        a.drain();
        assert_eq!(
            a.occupy(BlockAddr::from_index(0), Cycle::new(t)),
            0,
            "drained banks must be idle"
        );
    });
}

/// 19. Pinned bank-queue regression: a same-cycle burst followed by a
/// straggler inside the busy window and a late arrival past it, with the
/// exact delays the history model must produce (service 8, bound 64).
/// Kept verbatim so a queue-model rewrite cannot silently re-time the
/// CMP experiment.
#[test]
fn bank_queue_pinned_regression_case() {
    let mut b = BankQueue::new(BankQueueParams { service_cycles: 8, max_delay: 64 });
    let delays: Vec<u64> =
        [0u64, 0, 0, 4, 30, 30, 95].iter().map(|&t| b.occupy(Cycle::new(t))).collect();
    assert_eq!(delays, vec![0, 8, 16, 20, 2, 10, 0]);
    assert_eq!(b.conflicts(), 5);
    assert_eq!(b.stall_cycles(), 56);
}

/// 15. The memo table is invalidated on eviction: once the memoized
/// block is demoted back to the slowest position and evicted by
/// conflicting fills, the next access to it must miss — a stale memo
/// entry may waste a probe but can never manufacture a hit.
#[test]
fn way_memo_eviction_invalidates_cleanly() {
    let gen = (range_u64(0, 4_095), range_u64(2, 40));
    prop("way_memo_eviction_invalidates_cleanly").check(&gen, |(set_index, fills)| {
        let mut c = DnucaCache::new(DnucaConfig::micro2003(SearchPolicy::WayMemo));
        let sets = 4_096u64; // 8 MB / 16-way / 128-B blocks
        let mut t = Cycle::ZERO;
        let access = |c: &mut DnucaCache, b: u64, t: &mut Cycle| {
            let out = c.access(BlockAddr::from_index(b), AccessKind::Read, *t);
            *t = out.complete_at + 1;
            out.hit
        };
        // Memoize the victim: fill, then hit (promoting it one position
        // off the slowest bank, with the memo pointing at it).
        let victim = *set_index;
        access(&mut c, victim, &mut t);
        assert!(access(&mut c, victim, &mut t), "victim must be resident");
        // Demote it back to the slowest position: two other blocks bubble
        // through the adjacent position, swapping the (LRU) victim down.
        for k in 1..=2 {
            let conflicting = set_index + k * sets;
            access(&mut c, conflicting, &mut t);
            access(&mut c, conflicting, &mut t);
        }
        // Conflicting fills now evict the slowest-position LRU: the victim.
        for k in 3..3 + fills {
            access(&mut c, set_index + k * sets, &mut t);
        }
        assert!(
            !access(&mut c, victim, &mut t),
            "stale memo entry manufactured a hit after eviction"
        );
    });
}

/// 20. Counter algebra: for every organization in the factory roster
/// (plus NuRAPID over an L4 tier), the measured-phase counters read at
/// any two points of a run satisfy `after.minus(&before).plus(&before)
/// == after`, field by field. A counter added to a result struct but
/// missed in `minus` or `plus` fails here. The organization's energy is
/// the one f64 among the counts; it must agree to rounding.
#[test]
fn counter_deltas_add_back_onto_their_base() {
    use experiments::engine::{Counters, Phase};
    use experiments::{L2Kind, L4Config, RunOptions, Scale};
    use nuca::CnucaConfig;
    use simtel::TelemetrySink;

    let mut l4 = L4Config::tdram();
    (l4.n_banks, l4.bank_blocks, l4.assoc) = (4, 256, 4);
    let kinds = [
        L2Kind::Base,
        L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
        L2Kind::Coupled(4),
        L2Kind::Dnuca(SearchPolicy::SsPerformance),
        L2Kind::Dnuca(SearchPolicy::SsEnergy),
        L2Kind::Dnuca(SearchPolicy::WayMemo),
        L2Kind::Cnuca(CnucaConfig::micro2003()),
        L2Kind::L4(Box::new(L2Kind::NuRapid(NuRapidConfig::micro2003(4))), l4),
    ];
    let app = workloads::profiles::by_name("galgel").expect("in roster");
    let gen = (
        select((0..kinds.len()).collect()),
        range_u64(0, 2_000),
        range_u64(0, 2_000),
    );
    prop("counter_deltas_add_back_onto_their_base")
        .cases(16)
        .check(&gen, |&(k, a, b)| {
            let scale = Scale {
                warmup: 2_000,
                measure: 0,
            };
            let sink = TelemetrySink::disabled();
            let mut phase = Phase::warmed(app, &kinds[k], scale, &sink, 0, RunOptions::default());
            phase.run_to(a);
            let before = phase.counters();
            phase.run_to(a + b);
            let after = phase.counters();
            let back = after.minus(&before).plus(&before);
            let (e_back, e_after) = (back.org.l2_energy.nj(), after.org.l2_energy.nj());
            assert!(
                (e_back - e_after).abs() <= 1e-9 * e_after,
                "{k}: energy {e_back} vs {e_after}"
            );
            let counts = |c: &Counters| {
                let mut c = c.clone();
                c.org.l2_energy = simbase::EnergyNj::ZERO;
                c
            };
            assert_eq!(
                counts(&back),
                counts(&after),
                "{k}: a counter is missing from minus/plus"
            );
        });
}
