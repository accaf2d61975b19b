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
use nuca::{DnucaCache, DnucaConfig, SearchPolicy};
use nurapid::coupled::CoupledCache;
use nurapid::port::PortSchedule;
use nurapid::{DistanceVictimPolicy, NuRapidCache, NuRapidConfig, PromotionPolicy};
use simbase::digest::{Digest, Knob, KnobVisitor, Knobs, Tag};
use simbase::{AccessKind, BlockAddr, Capacity, Cycle};
use simkit::prop::{any_bool, any_u64, checker, range_u64, select, vec_of, Checker, VecGen};

/// Every property replays both corpus files before its random sweep: the
/// new simkit-native file (written on failure) and the legacy proptest one.
fn prop(name: &str) -> Checker {
    checker(name)
        .cases(64)
        .corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/simkit-regressions.txt"))
        .corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/properties.proptest-regressions"))
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
        let kind = if w {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
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
        let cfg = small_config(*n_dgroups).with_promotion(*promo).with_distance_victim(*victim);
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
            let kind = if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
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
        assert_eq!(count(small_config(4).with_promotion(PromotionPolicy::DemotionOnly)), reference);
        assert_eq!(count(small_config(4).with_promotion(PromotionPolicy::Fastest)), reference);
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
            let kind = if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
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
            let kind = if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
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
            let kind = if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = coupled.access_block(BlockAddr::from_index(b), kind, t);
            t = out.complete_at + 1;
        }
        assert_eq!(coupled.stats().misses.get(), decoupled.stats().misses.get());
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
            let kind = if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
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
            assert!([16, 32, 64, BLOCK_BYTES].contains(&bytes), "unknown size class {bytes}");
            assert!(bytes <= BLOCK_BYTES, "compression must never expand");
            assert_eq!(bytes, model.compressed_bytes(block), "not idempotent");
            assert_eq!(model.is_compressible(block), bytes * 2 <= BLOCK_BYTES);
            let lat = model.decompress_cycles(block, *decomp);
            assert_eq!(
                lat,
                if model.is_compressible(block) {
                    *decomp
                } else {
                    0
                }
            );
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
    prop("way_memo_skips_probes_without_changing_transitions").check(&trace(100_000), |ops| {
        let run = |policy| {
            let mut c = DnucaCache::new(DnucaConfig::micro2003(policy));
            let mut t = Cycle::ZERO;
            let mut hits = Vec::with_capacity(ops.len());
            for &(b, w) in ops {
                let kind = if w {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
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
    });
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
    let mut b = BankQueue::new(BankQueueParams {
        service_cycles: 8,
        max_delay: 64,
    });
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
    let gen = (select((0..kinds.len()).collect()), range_u64(0, 2_000), range_u64(0, 2_000));
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
            assert_eq!(counts(&back), counts(&after), "{k}: a counter is missing from minus/plus");
        });
}

/// One job of any digest family: the apps (one per core), organization,
/// budget, sampling regime if sampled (single-core only), and CMP
/// scenario if CMP.
#[derive(Debug, Clone)]
struct Job(
    Vec<workloads::BenchProfile>,
    experiments::L2Kind,
    experiments::Scale,
    Option<experiments::SampleSpec>,
    Option<cmp::CmpConfig>,
);

impl Knobs for Job {
    fn visit_knobs(&mut self, v: &mut KnobVisitor<'_>) {
        let Job(apps, kind, scale, spec, cmp) = self;
        apps.iter_mut().for_each(|app| app.visit_knobs(v));
        kind.visit_knobs(v);
        scale.visit_knobs(v);
        spec.iter_mut().for_each(|spec| spec.visit_knobs(v));
        cmp.iter_mut().for_each(|cfg| cfg.visit_knobs(v));
    }
}

impl Job {
    /// The digests keying this job's warm-up checkpoint and its result.
    fn digests(&self) -> (Digest, Digest) {
        use experiments::cmp::{cmp_run_digest, cmp_warmup_digest};
        use experiments::{run_digest, sampling::sampled_digest, warmup_digest};
        let Job(apps, kind, s, spec, cmp) = self;
        let (app, s) = (&apps[0], *s);
        let run = match (cmp, spec) {
            (None, None) => run_digest(app, kind, s),
            (None, Some(spec)) => sampled_digest(app, kind, s, *spec, 2),
            (Some(cfg), _) => cmp_run_digest(cfg, apps, kind, s),
        };
        match cmp {
            None => (warmup_digest(app, kind, s), run),
            Some(cfg) => (cmp_warmup_digest(cfg, apps, kind, s), run),
        }
    }

    /// The digest keying a single-core job's warm-up front end.
    fn frontend_digest(&self) -> Option<Digest> {
        let Job(apps, _, scale, _, cmp) = self;
        let block_bytes = cmp.is_none().then(|| self.block_bytes())?;
        Some(experiments::frontend::frontend_digest(&apps[0], scale.warmup, block_bytes))
    }

    /// The lower block size of the job's organization.
    fn block_bytes(&self) -> u64 {
        self.1.build().block_bytes()
    }

    /// Which part of the job knob `target` (in visit order) belongs to.
    fn owner_of(&self, target: usize) -> Owner {
        let count = |k: &mut dyn Knobs| {
            let mut n = 0;
            k.visit_knobs(&mut |_, _: &mut dyn Knob| n += 1);
            n
        };
        let mut job = self.clone();
        let apps: usize = job.0.iter_mut().map(|a| count(a)).sum();
        let org = apps + count(&mut job.1);
        match target {
            t if t < apps => Owner::Profile,
            t if t < org => Owner::Org,
            t if t == org => Owner::Warmup,
            _ => Owner::Other,
        }
    }

    /// The checkpoint payload this job's warm-up publishes.
    fn warm_blob(&self) -> Vec<u8> {
        let Job(apps, kind, scale, _, cmp) = self;
        let Some(cfg) = *cmp else {
            let (mut core, mut gen) = experiments::engine::build(apps[0], kind);
            core.warm_run(&mut gen, scale.warmup);
            return experiments::engine::save_arch(&core, &gen);
        };
        let opts = experiments::RunOptions::default();
        let sys = experiments::cmp::warmed("", cfg, apps, kind, *scale, opts);
        let mut e = simbase::snapshot::Encoder::new();
        sys.save_state(&mut e);
        e.into_bytes()
    }
}

/// The part of a [`Job`] a knob belongs to.
#[derive(Debug, PartialEq)]
enum Owner {
    Profile,
    Org,
    /// `Scale::warmup`, the first knob of the budget.
    Warmup,
    Other,
}

/// 21. Cache keys cannot lie.
///
/// Perturbing any one knob of any job (the organization's discriminant
/// included) moves the run digest; an `Arch` knob moves the warm-up
/// digest; a `Timing` knob leaves the warm-up digest equal *and* the warm
/// checkpoint blob byte-identical, so sharing one checkpoint across timing
/// variants is checked, not asserted. A single-core job's warm-up front
/// end is keyed apart by an `Arch` knob of its profile or by its warm-up
/// length, and shared by every organization knob that keeps the lower
/// block size.
#[test]
fn knob_tags_match_digests_and_warm_state() {
    use experiments::exps::{dram_kind, kind_of};
    use experiments::repro::{prewarm_keys, resolve_ids};
    use experiments::{SampleSpec, Scale};
    use workloads::profiles::ROSTER;

    let scale = |warmup| Scale {
        warmup,
        measure: 20_000,
    };
    // Every organization the report runs, plus the L4 `dram` scenario.
    let keys = prewarm_keys(&resolve_ids("all").expect("all"));
    let mut kinds: Vec<_> = keys.into_iter().map(kind_of).collect();
    kinds.push(dram_kind(scale(0)));
    let orgs = select((0..kinds.len()).collect());
    let (cores, apps) = (select(vec![1u32, 2, 4]), range_u64(0, ROSTER.len() as u64));
    let gen = (cores, any_bool(), orgs, apps, range_u64(1_000, 5_001));
    prop("knob_tags_match_digests_and_warm_state").cases(16).check(
        &gen,
        |&(cores, sampled, org, app, warmup)| {
            let job = Job(
                match cores {
                    1 => vec![ROSTER[app as usize]],
                    _ => experiments::cmp::cmp_profiles(cores),
                },
                kinds[org].clone(),
                scale(warmup),
                (sampled && cores == 1).then(|| SampleSpec::for_scale(scale(warmup))),
                (cores > 1).then(|| cmp::CmpConfig::micro2003(cores)),
            );
            let (warm, run) = job.digests();
            let front = job.frontend_digest();
            let mut blob = None;
            for target in 0.. {
                let (mut mutant, mut seen, mut perturbed) = (job.clone(), 0, None);
                mutant.visit_knobs(&mut |tag, knob: &mut dyn Knob| {
                    if seen == target {
                        knob.perturb();
                        perturbed = Some(tag);
                    }
                    seen += 1;
                });
                let Some(tag) = perturbed else { break };
                let (mutant_warm, mutant_run) = mutant.digests();
                let at = format!("knob {target} ({tag:?}) of {job:?}");
                assert_ne!(mutant_run, run, "{at} is missing from the run digest");
                if let (Some(front), Some(mutant_front)) = (front, mutant.frontend_digest()) {
                    match job.owner_of(target) {
                        Owner::Profile | Owner::Warmup if tag == Tag::Arch => {
                            let missing = format!("{at} is missing from the front-end digest");
                            assert_ne!(mutant_front, front, "{missing}");
                        }
                        Owner::Org if job.block_bytes() == mutant.block_bytes() => {
                            assert_eq!(mutant_front, front, "{at} split the front end");
                        }
                        _ => {}
                    }
                }
                if tag == Tag::Arch {
                    assert_ne!(mutant_warm, warm, "{at} is missing from the warm-up digest");
                } else {
                    assert_eq!(mutant_warm, warm, "{at} entered the warm-up digest");
                    let want = blob.get_or_insert_with(|| job.warm_blob());
                    assert!(mutant.warm_blob() == *want, "{at} changed the warm state");
                }
            }
        },
    );
}

/// 22. One front end feeds every organization.
///
/// For every organization the report runs, plus NuRAPID over the L4
/// tier, on a random application and warm-up length (zero included): the
/// checkpoint payload after recording the warm-up front end once and
/// replaying it into a prefilled system equals, byte for byte, the payload
/// after warming the same system up in place.
#[test]
fn front_end_replay_matches_an_in_place_warm_up() {
    use experiments::engine::{build, save_arch};
    use experiments::exps::kind_of;
    use experiments::frontend::FrontEnd;
    use experiments::repro::{prewarm_keys, resolve_ids};
    use experiments::{L2Kind, L4Config};
    use workloads::profiles::ROSTER;

    let keys = prewarm_keys(&resolve_ids("all").expect("all"));
    let mut kinds: Vec<(String, L2Kind)> =
        keys.into_iter().map(|k| (k.to_string(), kind_of(k))).collect();
    let nf4_l4 = L2Kind::L4(Box::new(kind_of("nf4")), L4Config::tdram());
    kinds.push(("nf4+l4".to_string(), nf4_l4));
    let orgs = select((0..kinds.len()).collect());
    let gen = (orgs, range_u64(0, ROSTER.len() as u64), any_bool(), range_u64(1, 6_001));
    prop("front_end_replay_matches_an_in_place_warm_up").cases(24).check(
        &gen,
        |&(org, app, cold, warmup)| {
            let (key, kind) = &kinds[org];
            let (app, warmup) = (ROSTER[app as usize], if cold { 0 } else { warmup });
            let (mut core, mut gen) = build(app, kind);
            core.warm_run(&mut gen, warmup);
            let in_place = save_arch(&core, &gen);
            let (mut core, mut gen) = build(app, kind);
            let front = FrontEnd::record(app, warmup, core.mem().lower().block_bytes());
            front.replay(&mut core, &mut gen);
            assert!(
                save_arch(&core, &gen) == in_place,
                "{key} on {} after {warmup} ops: the replayed payload differs",
                app.name
            );
        },
    );
}

/// 23. One functional pass builds every member's snapshot chain.
///
/// On a random application, for a random set of members (any
/// organization the report runs, NuRAPID over the L4 tier, twins allowed)
/// and random ascending points after a random warm-up: every payload
/// [`experiments::engine::publish_chain`] leaves in the store equals, byte
/// for byte, the one a per-run chain builds by warming that member's
/// system up in place to the point. Some members find their first points
/// already stored (published from in-place payloads), so the shared pass
/// must still drive them from the start. Every distinct point missing
/// from the store is built once, and every other request is a hit.
#[test]
fn a_shared_chain_publishes_every_members_in_place_payloads() {
    use experiments::engine::{build, publish_chain, save_arch, ChainMember};
    use experiments::exps::kind_of;
    use experiments::repro::{prewarm_keys, resolve_ids};
    use experiments::sampling::interval_digest;
    use experiments::{warmup_digest, CheckpointStore, L2Kind, L4Config, Scale};
    use std::collections::HashSet;
    use workloads::profiles::ROSTER;

    let keys = prewarm_keys(&resolve_ids("all").expect("all"));
    let mut kinds: Vec<(String, L2Kind)> =
        keys.into_iter().map(|k| (k.to_string(), kind_of(k))).collect();
    let nf4_l4 = L2Kind::L4(Box::new(kind_of("nf4")), L4Config::tdram());
    kinds.push(("nf4+l4".to_string(), nf4_l4));
    // (organization, points already stored) per member.
    let members = vec_of((select((0..kinds.len()).collect()), range_u64(0, 4)), 1, 4);
    let offsets = vec_of(range_u64(1, 20_001), 0, 3);
    let gen = (range_u64(0, ROSTER.len() as u64), range_u64(0, 20_001), offsets, members);
    let case = std::sync::atomic::AtomicU64::new(0);
    prop("a_shared_chain_publishes_every_members_in_place_payloads")
        .cases(16)
        .check(&gen, |(app, warmup, offsets, members)| {
            let app = ROSTER[*app as usize];
            let scale = Scale {
                warmup: *warmup,
                measure: 10_000,
            };
            let mut abs: Vec<u64> = offsets.iter().map(|o| warmup + o).collect();
            abs.push(*warmup);
            abs.sort_unstable();
            abs.dedup();
            let chain = |kind: &L2Kind| ChainMember {
                kind: kind.clone(),
                points: abs
                    .iter()
                    .map(|&a| match a == *warmup {
                        true => (a, warmup_digest(&app, kind, scale)),
                        false => (a, interval_digest(&app, kind, scale, a)),
                    })
                    .collect(),
            };
            let chains: Vec<ChainMember> =
                members.iter().map(|&(k, _)| chain(&kinds[k].1)).collect();
            // The per-run chain: each member's system warmed up in place.
            let in_place: Vec<Vec<Vec<u8>>> = chains
                .iter()
                .map(|c| {
                    let (mut core, mut gen) = build(app, &c.kind);
                    let payload = |&(a, _): &(u64, Digest)| {
                        core.warm_run_to(&mut gen, a);
                        save_arch(&core, &gen)
                    };
                    c.points.iter().map(payload).collect()
                })
                .collect();

            let n = case.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("simchk-shared-chain-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::open(&dir).expect("open store");
            let mut stored = HashSet::new();
            for (m, &(_, first)) in members.iter().enumerate() {
                for (p, &(_, digest)) in chains[m].points.iter().enumerate().take(first as usize) {
                    let _ = store.get_or_build(digest, || in_place[m][p].clone());
                    stored.insert(digest);
                }
            }
            let (hits, misses) = (store.hits(), store.misses());
            publish_chain(app, &chains, &store, None);
            let requests: u64 = chains.iter().map(|c| c.points.len() as u64).sum();
            let distinct: HashSet<Digest> =
                chains.iter().flat_map(|c| c.points.iter().map(|&(_, d)| d)).collect();
            let built = distinct.difference(&stored).count() as u64;
            assert_eq!(store.misses() - misses, built, "each missing point built once");
            assert_eq!(store.hits() - hits, requests - built, "every other request a hit");
            for (m, c) in chains.iter().enumerate() {
                for (p, &(a, digest)) in c.points.iter().enumerate() {
                    let (payload, hit) = store.get_or_build(digest, Vec::new);
                    assert!(hit, "member {m}'s point at {a} was published");
                    assert!(
                        *payload == in_place[m][p],
                        "member {m} ({}) on {} at {a}: the shared chain's payload differs",
                        kinds[members[m].0].0,
                        app.name
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        });
}

/// 24. One lockstep group's windows are each member's own.
///
/// For members from every report key plus nf4 over the L4 tier, each
/// sampling under the default regime, one of the sampling study's
/// divisors, or a regime that observes its windows from their first op
/// (equal window starts, unequal window lengths), split into 1–3
/// intervals: `sampling::run_group` returns for every member the windows
/// of an in-place run of that member alone, every window's counters equal
/// bit for bit, whether the group is seeded from a cold store on one
/// thread, from held snapshots without a store, or from the warm store on
/// two threads. The in-place run warms its system up functionally to
/// each interval's first window, crosses the drain barrier, and then
/// fast-forwards the same system to each window start before timing the
/// window. Two fixed groups come first: timing-only twins (nf4 and id4,
/// and one key twice) at mixed divisors, and three families with the L4
/// tier over three intervals; then random groups.
#[test]
fn a_lockstep_group_observes_what_each_member_does_alone() {
    use cpu::uop::TraceSource;
    use experiments::engine::{build, Counters, System};
    use experiments::exps::{kind_of, sampling_spec, SAMPLING_DIVISORS};
    use experiments::repro::{prewarm_keys, resolve_ids};
    use experiments::sampling::{chain_points, run_group, WindowObs};
    use experiments::{CheckpointStore, L2Kind, L4Config, RunOptions, SampleSpec, Scale};
    use simtel::TelemetrySink;
    use workloads::profiles::{by_name, ROSTER};

    let keys = prewarm_keys(&resolve_ids("all").expect("all"));
    let mut kinds: Vec<(String, L2Kind)> =
        keys.into_iter().map(|k| (k.to_string(), kind_of(k))).collect();
    let nf4_l4 = L2Kind::L4(Box::new(kind_of("nf4")), L4Config::tdram());
    kinds.push(("nf4+l4".to_string(), nf4_l4));
    let counters = |core: &System| {
        let lower = core.mem().lower();
        Counters {
            core: core.finish(),
            l1_accesses: core.mem().l1_accesses(),
            org: lower.report(),
            l4: lower.main_memory().and_then(|m| m.l4_stats()),
        }
    };
    // The member's windows from an in-place run of it alone.
    let in_place = |app, kind: &L2Kind, scale: Scale, spec: SampleSpec, intervals| {
        let points = chain_points(&app, kind, scale, spec, intervals);
        let first = |&(abs, _): &(u64, _)| (abs - scale.warmup) / spec.period;
        let ends = points.iter().skip(1).map(first).chain([spec.windows(scale)]);
        let mut observed = Vec::new();
        for (point, end) in points.iter().zip(ends) {
            let (mut core, mut gen) = build(app, kind);
            core.warm_run_to(&mut gen, point.0);
            let sink = TelemetrySink::disabled();
            let mut core = core.drain_barrier(|org| org.drain_barrier(&sink, 0));
            for w in first(point)..end {
                let start = w * spec.period;
                core.warm_run_to(&mut gen, scale.warmup + start);
                (0..spec.warmup).for_each(|_| core.execute(gen.next_op()));
                let before = counters(&core);
                (0..spec.measure).for_each(|_| core.execute(gen.next_op()));
                let counters = counters(&core).minus(&before);
                observed.push(WindowObs {
                    index: w,
                    start,
                    counters,
                });
            }
        }
        observed
    };
    let case = std::sync::atomic::AtomicU64::new(0);
    // `members` are (organization, regime) pairs; regime 0 is the default
    // one, regime d the study's d-th divisor, and the last regime has no
    // detailed warm-up, so a window's counters include how its first op
    // is fetched.
    let same_as_alone =
        |app: workloads::BenchProfile, warmup, intervals, members: &[(usize, u64)]| {
            let scale = Scale {
                warmup,
                measure: 12_000,
            };
            let spec = |r: u64| match r as usize {
                0 => SampleSpec::for_scale(scale),
                d if d <= SAMPLING_DIVISORS.len() => sampling_spec(scale, SAMPLING_DIVISORS[d - 1]),
                _ => SampleSpec {
                    warmup: 0,
                    measure: 150,
                    ..SampleSpec::for_scale(scale)
                },
            };
            let group: Vec<(L2Kind, SampleSpec)> =
                members.iter().map(|&(k, r)| (kinds[k].1.clone(), spec(r))).collect();
            let alone: Vec<Vec<WindowObs>> = (group.iter())
                .map(|(kind, spec)| in_place(app, kind, scale, *spec, intervals))
                .collect();
            let n = case.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("simchk-lockstep-group-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::open(&dir).expect("open store");
            for (leg, checkpoints, threads) in [
                ("cold store", Some(&store), 1),
                ("no store", None, 1),
                ("warm store", Some(&store), 2),
            ] {
                let opts = RunOptions {
                    checkpoints,
                    ..RunOptions::default()
                };
                let runs = run_group(app, scale, intervals, &group, threads, opts);
                assert_eq!(runs.len(), group.len());
                for (m, ((_, spec), run)) in group.iter().zip(&runs).enumerate() {
                    assert!(
                        run.windows == alone[m],
                        "{leg}, threads={threads}: member {m} ({}, {spec:?}) on {}: \
                         the group's windows differ from its own",
                        kinds[members[m].0].0,
                        app.name
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        };
    let at = |key: &str| kinds.iter().position(|(k, _)| k == key).expect("a report key");
    let twins = [(at("nf4"), 1), (at("id4"), 4), (at("nf4"), 5)];
    same_as_alone(by_name("mcf").expect("mcf"), 3_000, 2, &twins);
    let families = [(at("nf4+l4"), 0), (at("dn-perf"), 3), (at("base"), 1)];
    same_as_alone(by_name("galgel").expect("galgel"), 0, 3, &families);

    let regimes = SAMPLING_DIVISORS.len() as u64 + 2;
    let members = vec_of((select((0..kinds.len()).collect()), range_u64(0, regimes)), 1, 3);
    let gen = (range_u64(0, ROSTER.len() as u64), range_u64(0, 8_001), range_u64(1, 4), members);
    prop("a_lockstep_group_observes_what_each_member_does_alone").cases(12).check(
        &gen,
        |(app, warmup, intervals, members)| {
            let members: Vec<(usize, u64)> = members.clone();
            same_as_alone(ROSTER[*app as usize], *warmup, *intervals, &members);
        },
    );
}
