//! Cross-organization conformance suite: the [`Organization`] contract
//! (DESIGN.md §12), enforced against **every** organization the
//! [`L2Kind::build`] factory can produce — the base hierarchy, NuRAPID,
//! the coupled set-associative ablation, all three D-NUCA search
//! policies, and compressed NUCA.
//!
//! Every test iterates the same roster through `Box<dyn Organization>`,
//! never naming a concrete cache type: a new organization registered in
//! the factory is covered by this file automatically. The fourth leg of
//! the contract — zero steady-state heap allocation — lives in
//! `tests/no_alloc.rs` because it needs a process-global counting
//! allocator.

use experiments::L2Kind;
use memsys::org::{OrgReport, Organization};
use nuca::{CnucaConfig, SearchPolicy};
use nurapid::NuRapidConfig;
use simbase::snapshot::{Decoder, Encoder};
use simbase::{AccessKind, BlockAddr, Cycle};

/// Every organization the experiments factory can build, by display name.
fn roster() -> Vec<(&'static str, L2Kind)> {
    vec![
        ("base", L2Kind::Base),
        ("nurapid", L2Kind::NuRapid(NuRapidConfig::micro2003(4))),
        ("coupled", L2Kind::Coupled(4)),
        ("dnuca-ss-performance", L2Kind::Dnuca(SearchPolicy::SsPerformance)),
        ("dnuca-ss-energy", L2Kind::Dnuca(SearchPolicy::SsEnergy)),
        ("dnuca-way-memo", L2Kind::Dnuca(SearchPolicy::WayMemo)),
        ("cnuca", L2Kind::Cnuca(CnucaConfig::micro2003())),
    ]
}

/// Deterministic mixed read/write stream over a footprint large enough to
/// produce hits, misses, evictions, and promotions in every organization.
/// Returns the per-access outcomes `(complete_at, hit)` for comparison.
fn drive(
    org: &mut Box<dyn Organization>,
    accesses: u64,
    start: Cycle,
) -> (Vec<(Cycle, bool)>, Cycle) {
    const FOOTPRINT: u64 = 262_144; // 32 MB of 128-B blocks
    let mut t = start;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut outcomes = Vec::with_capacity(accesses as usize);
    for i in 0..accesses {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = BlockAddr::from_index(x % FOOTPRINT);
        let kind = if i % 3 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let out = org.access(block, kind, t);
        outcomes.push((out.complete_at, out.hit));
        t = out.complete_at + 1;
    }
    (outcomes, t)
}

/// The same stream through the functional warm path (no timing).
fn warm_drive(org: &mut Box<dyn Organization>, accesses: u64) {
    const FOOTPRINT: u64 = 262_144;
    let mut x = 0x5eed_5eed_5eed_5eedu64;
    for i in 0..accesses {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = BlockAddr::from_index(x % FOOTPRINT);
        let kind = if i % 4 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        org.warm_access(block, kind);
    }
}

/// Reconstructing an organization and replaying the same trace must
/// reproduce outcomes and the report bit for bit: no hidden global state,
/// wall-clock reads, or unseeded randomness anywhere in the roster.
#[test]
fn reconstruction_is_deterministic() {
    for (name, kind) in roster() {
        let run = || {
            let mut org = kind.build();
            org.prefill();
            warm_drive(&mut org, 4_000);
            org.drain_timing();
            org.reset_stats();
            let (outcomes, _) = drive(&mut org, 12_000, Cycle::ZERO);
            (outcomes, org.report())
        };
        let (out_a, rep_a) = run();
        let (out_b, rep_b) = run();
        assert_eq!(out_a, out_b, "{name}: outcomes diverged across reconstruction");
        assert_eq!(rep_a, rep_b, "{name}: reports diverged across reconstruction");
    }
}

/// Saving at the drain barrier and restoring into a freshly built twin
/// must continue exactly like the uninterrupted run — outcomes and the
/// measured-phase report both.
#[test]
fn snapshot_round_trip_matches_uninterrupted_run() {
    for (name, kind) in roster() {
        let mut org = kind.build();
        org.prefill();
        warm_drive(&mut org, 4_000);
        let (_, resume_at) = drive(&mut org, 6_000, Cycle::ZERO);

        // The snapshot covers architectural state only, so it is taken at
        // the drain barrier — exactly where the runner takes it.
        org.drain_timing();
        let mut e = Encoder::new();
        org.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut twin = kind.build();
        let mut d = Decoder::new(&bytes);
        twin.load_state(&mut d)
            .unwrap_or_else(|err| panic!("{name}: load_state failed: {err:?}"));
        d.finish()
            .unwrap_or_else(|err| panic!("{name}: trailing snapshot bytes: {err:?}"));

        org.reset_stats();
        twin.reset_stats();
        let (out_orig, _) = drive(&mut org, 6_000, resume_at);
        let (out_twin, _) = drive(&mut twin, 6_000, resume_at);
        assert_eq!(out_orig, out_twin, "{name}: restored twin diverged");
        assert_eq!(org.report(), twin.report(), "{name}: reports diverged after restore");
    }
}

/// A restore needs no prefill: a warmed snapshot restored into a freshly
/// built, never-prefilled instance re-saves byte-identical bytes, for
/// every organization in the roster plus NuRAPID over the L4 tier (the
/// small conformance tier and the `dram` scenario's). This is what lets
/// the engine skip the prefill on every checkpoint restore.
#[test]
fn restoring_into_an_unprefilled_instance_resaves_the_same_bytes() {
    let mut kinds = roster()
        .into_iter()
        .map(|(name, kind)| (name.to_string(), kind))
        .collect::<Vec<_>>();
    kinds.extend(l4_roster().into_iter().filter(|(n, _)| n == "nurapid+l4"));
    let dram = experiments::exps::dram_kind(experiments::Scale::quick());
    kinds.push(("dram".into(), dram));
    for (name, kind) in kinds {
        let mut org = kind.build();
        org.prefill();
        warm_drive(&mut org, 4_000);
        org.drain_timing();
        let mut e = Encoder::new();
        org.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut bare = kind.build();
        let mut d = Decoder::new(&bytes);
        bare.load_state(&mut d)
            .unwrap_or_else(|err| panic!("{name}: load_state failed: {err:?}"));
        d.finish()
            .unwrap_or_else(|err| panic!("{name}: trailing snapshot bytes: {err:?}"));
        let mut e = Encoder::new();
        bare.save_state(&mut e);
        assert!(e.into_bytes() == bytes, "{name}: an unprefilled restore re-saves other bytes");
    }
}

/// Restores decode in place, into the buffers the instance already owns,
/// so nothing from before a restore may survive it: a payload restored
/// into an instance that already ran a different stream re-saves the
/// same bytes as one restored into an unfilled instance. Under the L4
/// tier the used instance is also resized to more banks than the payload
/// holds, and to fewer, so the restore both retires and rebuilds bank
/// directories.
#[test]
fn restoring_over_a_used_instance_resaves_the_same_bytes() {
    let save = |org: &dyn Organization| {
        let mut e = Encoder::new();
        org.save_state(&mut e);
        e.into_bytes()
    };
    let restore = |org: &mut Box<dyn Organization>, bytes: &[u8], name: &str| {
        let mut d = Decoder::new(bytes);
        org.load_state(&mut d)
            .and_then(|()| d.finish())
            .unwrap_or_else(|err| panic!("{name}: restore failed: {err:?}"));
    };
    let plain = roster().into_iter().map(|(name, kind)| (name.to_string(), kind, None));
    let l4 = l4_roster().into_iter().flat_map(|(name, kind)| {
        [(2, 7), (7, 2)].map(|banks| (name.clone(), kind.clone(), Some(banks)))
    });
    for (name, kind, banks) in plain.chain(l4) {
        let mut org = kind.build();
        org.prefill();
        warm_drive(&mut org, 4_000);
        if let Some((saved, _)) = banks {
            resize_l4(&mut org, saved, Cycle::ZERO);
        }
        org.drain_timing();
        let bytes = save(org.as_ref());

        let mut bare = kind.build();
        restore(&mut bare, &bytes, &name);

        let mut used = kind.build();
        used.prefill();
        let (_, t) = drive(&mut used, 6_000, Cycle::ZERO);
        if let Some((_, other)) = banks {
            resize_l4(&mut used, other, t);
            drive(&mut used, 2_000, t);
        }
        used.drain_timing();
        restore(&mut used, &bytes, &name);

        assert!(save(bare.as_ref()) == bytes, "{name}: an unfilled restore re-saves other bytes");
        assert!(
            save(used.as_ref()) == bytes,
            "{name} {banks:?}: a restore over a used instance re-saves other bytes"
        );
    }
}

/// A geometry-mismatched payload must be rejected, not silently loaded:
/// feeding one organization's snapshot to a different one errors for
/// every cross pair (this is the safety net under checkpoint keying).
#[test]
fn snapshots_do_not_load_across_organizations() {
    let snapshots: Vec<(&'static str, Vec<u8>)> = roster()
        .into_iter()
        .map(|(name, kind)| {
            let mut org = kind.build();
            org.prefill();
            let mut e = Encoder::new();
            org.save_state(&mut e);
            (name, e.into_bytes())
        })
        .collect();
    for (to_name, kind) in roster() {
        for (from_name, bytes) in &snapshots {
            if *from_name == to_name
                || (to_name.starts_with("dnuca") && from_name.starts_with("dnuca"))
            {
                continue; // D-NUCA policies share architectural state by design
            }
            let mut org = kind.build();
            let mut d = Decoder::new(bytes);
            let outcome = org.load_state(&mut d).and_then(|()| d.finish());
            assert!(outcome.is_err(), "{to_name} silently accepted a {from_name} snapshot");
        }
    }
}

/// Demand counters must be monotone, consistent with each other, and the
/// report must reduce them coherently: misses never exceed accesses,
/// `miss_frac` matches the counters, and the d-group fractions plus the
/// miss fraction never sum past 1.
#[test]
fn stats_are_monotone_and_reports_coherent() {
    for (name, kind) in roster() {
        let mut org = kind.build();
        org.prefill();
        let mut t = Cycle::ZERO;
        let mut last_accesses = 0u64;
        let mut last_misses = 0u64;
        for round in 0..8 {
            let (_, next) = drive(&mut org, 2_000, t);
            t = next;
            let (a, m) = (org.accesses(), org.misses());
            assert!(a >= last_accesses && m >= last_misses, "{name}: counter went backwards");
            assert_eq!(a, last_accesses + 2_000, "{name}: accesses must count every access");
            assert!(m <= a, "{name}: more misses than accesses in round {round}");
            (last_accesses, last_misses) = (a, m);
        }
        let rep = org.report();
        assert_eq!(rep.l2_accesses, last_accesses, "{name}");
        assert_eq!(rep.l2_misses, last_misses, "{name}");
        assert!(
            (rep.miss_frac() - last_misses as f64 / last_accesses as f64).abs() < 1e-12,
            "{name}: miss_frac inconsistent with counters"
        );
        let frac_sum: f64 = rep.group_fracs().iter().sum();
        assert!(
            frac_sum + rep.miss_frac() <= 1.0 + 1e-9,
            "{name}: group fractions + miss fraction exceed 1 ({frac_sum} + {})",
            rep.miss_frac()
        );
        assert!(rep.group_fracs().iter().all(|f| (0.0..=1.0).contains(f)), "{name}");
        assert!(rep.l2_energy.nj() >= 0.0, "{name}: negative energy");
    }
}

/// `reset_stats` zeroes everything feeding the report without touching
/// architectural state: the post-reset measured window must be identical
/// whether or not stats were reset mid-run.
#[test]
fn reset_stats_clears_the_report_but_not_the_cache() {
    for (name, kind) in roster() {
        let mut org = kind.build();
        org.prefill();
        let (_, t) = drive(&mut org, 5_000, Cycle::ZERO);
        org.reset_stats();
        let zero = org.report();
        assert_eq!(
            (zero.l2_accesses, zero.l2_misses, zero.dgroup_accesses, zero.swaps),
            (0, 0, 0, 0),
            "{name}: reset_stats left counters behind"
        );
        assert_eq!(zero.l2_energy.nj(), 0.0, "{name}: reset_stats left energy behind");

        // A twin that never resets takes the same transitions: resetting
        // statistics must not perturb the access stream's outcomes.
        let mut twin = kind.build();
        twin.prefill();
        let (_, t2) = drive(&mut twin, 5_000, Cycle::ZERO);
        assert_eq!(t, t2);
        let (out_reset, _) = drive(&mut org, 5_000, t);
        let (out_plain, _) = drive(&mut twin, 5_000, t);
        assert_eq!(out_reset, out_plain, "{name}: reset_stats changed behavior");
        assert_eq!(org.report().l2_accesses, 5_000, "{name}");
    }
}

/// Every organization in the factory roster must also conform under the
/// CMP front-end: two cores interleaving misses into one shared instance
/// stay deterministic across reconstruction, retire their full
/// instruction budget, and the bank/report accounting stays coherent.
/// A new organization registered in the factory is covered here
/// automatically, exactly like the single-core legs above.
#[test]
fn every_organization_conforms_under_the_cmp_front_end() {
    use cmp::{CmpConfig, CmpSystem};
    use simtel::TelemetrySink;
    let profiles: Vec<_> = ["galgel", "wupwise"]
        .iter()
        .map(|n| workloads::profiles::by_name(n).expect("in roster"))
        .collect();
    for (name, kind) in roster() {
        let run = || {
            let mut sys = CmpSystem::new(CmpConfig::micro2003(2), kind.build(), &profiles, 0x5eed);
            sys.warm_run(3_000);
            sys.drain_barrier(&TelemetrySink::disabled(), 0);
            sys.run(6_000);
            sys.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{name}: CMP run diverged across reconstruction");
        assert_eq!(a.per_core.len(), 2, "{name}");
        for (i, core) in a.per_core.iter().enumerate() {
            assert!(core.instructions >= 6_000, "{name}: core {i} under-retired");
            assert!(core.cycles > 0 && core.ipc() > 0.0, "{name}: core {i} made no progress");
        }
        assert!(a.report.l2_accesses > 0, "{name}: the shared L2 saw no traffic");
        assert!(a.report.l2_misses <= a.report.l2_accesses, "{name}");
        assert_eq!(
            a.per_core_bank_stalls.iter().sum::<u64>(),
            a.bank_stall_cycles,
            "{name}: per-core bank stalls must sum to the total"
        );
        assert_eq!(
            a.bank_conflicts == 0,
            a.bank_stall_cycles == 0,
            "{name}: conflicts and stall cycles must agree on zero"
        );
        let fairness = a.fairness();
        assert!(
            (0.0..=1.0 + 1e-9).contains(&fairness),
            "{name}: fairness {fairness} out of range"
        );
    }
}

/// The roster again, each organization wrapped in a small L4 DRAM-cache
/// tier (DESIGN.md §15). Every contract leg below runs the full roster
/// through `Box<dyn Organization>` exactly like the plain legs, so a new
/// organization is covered with and without the tier automatically.
fn l4_roster() -> Vec<(String, L2Kind)> {
    // A deliberately small tier (4 banks x 64 sets x 4 ways, 64
    // tag-cache slots) so conformance-sized traces create evictions,
    // dirty flushes, and orphaned blocks around every resize.
    let mut cfg = memsys::dramcache::L4Config::tdram();
    cfg.n_banks = 4;
    cfg.bank_blocks = 256;
    cfg.assoc = 4;
    cfg.vnodes_per_bank = 8;
    cfg.tag_cache_entries = 64;
    roster()
        .into_iter()
        .map(|(name, kind)| (format!("{name}+l4"), L2Kind::L4(Box::new(kind), cfg.clone())))
        .collect()
}

/// The drain barrier (DESIGN.md §11) zeroes every counter in each mode
/// that crosses it — the single-core engine (after a timed warm-up),
/// every core of the CMP front-end (after a timed stretch), and a
/// sampled interval seeded from snapshot bytes — for the full roster plus
/// NuRAPID over the L4 tier: every `OrgReport` count, the d-group hits,
/// the L4 events, the L1 accesses, and the core's commit counters.
#[test]
fn the_drain_barrier_zeroes_every_counter_in_every_mode() {
    use cmp::{CmpConfig, CmpSystem};
    use experiments::engine::{self, Counters, Phase};
    use experiments::{RunOptions, Scale, WarmupMode};
    use memsys::dramcache::L4Stats;
    use simtel::TelemetrySink;

    let zero = |c: &Counters| Counters {
        core: cpu::CoreResult::default(),
        l1_accesses: 0,
        org: zero_report(&c.org),
        l4: c.l4.map(|_| L4Stats::default()),
    };
    let app = workloads::profiles::by_name("galgel").expect("in roster");
    let profiles = [
        app,
        workloads::profiles::by_name("wupwise").expect("in roster"),
    ];
    let mut kinds: Vec<(String, L2Kind)> =
        roster().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    kinds.extend(l4_roster().into_iter().filter(|(n, _)| n == "nurapid+l4"));
    assert_eq!(kinds.len(), 8);
    for (name, kind) in &kinds {
        let timed = RunOptions {
            mode: WarmupMode::Timed,
            ..Default::default()
        };
        let scale = Scale {
            warmup: 3_000,
            measure: 0,
        };
        let c = Phase::warmed(app, kind, scale, &TelemetrySink::disabled(), 0, timed).counters();
        assert_eq!(c, zero(&c), "{name}: single-core engine");

        let (mut core, mut gen) = engine::build(app, kind);
        core.warm_run(&mut gen, 3_000);
        let c = Phase::seeded(app, kind, &engine::save_arch(&core, &gen)).counters();
        assert_eq!(c, zero(&c), "{name}: sampled-interval seed");

        let mut sys = CmpSystem::new(CmpConfig::micro2003(2), kind.build(), &profiles, 0x5eed);
        sys.warm_run(1_000);
        sys.run(2_000);
        sys.drain_barrier(&TelemetrySink::disabled(), 0);
        let r = sys.finish();
        assert_eq!(r.per_core, vec![cpu::CoreResult::default(); 2], "{name}: CMP cores");
        assert_eq!(r.report, zero_report(&r.report), "{name}: CMP report");
        assert_eq!(sys.l1_accesses(), vec![0, 0], "{name}: CMP L1s");
        assert_eq!(sys.l4_stats(), sys.l4_stats().map(|_| L4Stats::default()), "{name}: CMP L4");
    }
}

/// An all-zero report with `r`'s d-group count.
fn zero_report(r: &OrgReport) -> OrgReport {
    OrgReport {
        l2_accesses: 0,
        l2_misses: 0,
        group_hits: vec![0; r.group_hits.len()],
        dgroup_accesses: 0,
        swaps: 0,
        memory_accesses: 0,
        l2_energy: simbase::EnergyNj::ZERO,
    }
}

/// Shrinks or grows the organization's L4 to `target` banks at `now`.
fn resize_l4(org: &mut Box<dyn Organization>, target: u32, now: Cycle) {
    org.main_memory_mut()
        .expect("the L4 roster is DRAM-backed")
        .resize_l4(target, now);
}

/// With the L4 tier attached, reconstruction stays deterministic even
/// when the measured stream straddles a shrink (orphaning resident
/// blocks and flushing dirty ones) and a grow (remapping onto fresh
/// banks): outcomes, the report, and every L4 counter reproduce bit for
/// bit.
#[test]
fn l4_reconstruction_is_deterministic_across_resizes() {
    for (name, kind) in l4_roster() {
        let run = || {
            let mut org = kind.build();
            org.prefill();
            warm_drive(&mut org, 4_000);
            org.drain_timing();
            org.reset_stats();
            let (mut outcomes, t) = drive(&mut org, 4_000, Cycle::ZERO);
            resize_l4(&mut org, 2, t);
            let (more, t) = drive(&mut org, 2_000, t);
            outcomes.extend(more);
            resize_l4(&mut org, 6, t);
            let (more, _) = drive(&mut org, 2_000, t);
            outcomes.extend(more);
            let l4 = org.main_memory().expect("DRAM-backed").l4_stats().expect("L4 attached");
            (outcomes, org.report(), l4)
        };
        let (out_a, rep_a, l4_a) = run();
        let (out_b, rep_b, l4_b) = run();
        assert_eq!(out_a, out_b, "{name}: outcomes diverged across reconstruction");
        assert_eq!(rep_a, rep_b, "{name}: reports diverged across reconstruction");
        assert_eq!(l4_a, l4_b, "{name}: L4 counters diverged across reconstruction");
        assert_eq!(l4_a.resizes, 2, "{name}: both resizes must be counted");
        assert!(l4_a.accesses > 0, "{name}: the L4 saw no traffic");
    }
}

/// The snapshot contract holds through a live resize: saving after a
/// shrink (with its eager dirty flush and orphaned survivors) and
/// restoring into a freshly built twin continues exactly like the
/// uninterrupted run.
#[test]
fn l4_snapshot_round_trip_survives_a_resize() {
    for (name, kind) in l4_roster() {
        let mut org = kind.build();
        org.prefill();
        warm_drive(&mut org, 4_000);
        let (_, t) = drive(&mut org, 4_000, Cycle::ZERO);
        resize_l4(&mut org, 2, t);
        let (_, resume_at) = drive(&mut org, 2_000, t);

        org.drain_timing();
        let mut e = Encoder::new();
        org.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut twin = kind.build();
        let mut d = Decoder::new(&bytes);
        twin.load_state(&mut d)
            .unwrap_or_else(|err| panic!("{name}: load_state failed: {err:?}"));
        d.finish()
            .unwrap_or_else(|err| panic!("{name}: trailing snapshot bytes: {err:?}"));

        org.reset_stats();
        twin.reset_stats();
        let (out_orig, _) = drive(&mut org, 4_000, resume_at);
        let (out_twin, _) = drive(&mut twin, 4_000, resume_at);
        assert_eq!(out_orig, out_twin, "{name}: restored twin diverged");
        assert_eq!(org.report(), twin.report(), "{name}: reports diverged after restore");
        let stats = |o: &Box<dyn Organization>| o.main_memory().unwrap().l4_stats().unwrap();
        assert_eq!(stats(&org), stats(&twin), "{name}: L4 counters diverged after restore");
    }
}

/// An L4-enabled snapshot can never load into the same organization
/// without the tier, and vice versa: the magic-framed L4 section leaves
/// trailing bytes one way and truncates the other. This is the safety
/// net under checkpoint keying when the `--l4` flag flips between runs.
#[test]
fn l4_snapshots_do_not_cross_load_with_plain_ones() {
    for ((plain_name, plain_kind), (l4_name, l4_kind)) in roster().into_iter().zip(l4_roster()) {
        let snapshot = |kind: &L2Kind| {
            let mut org = kind.build();
            org.prefill();
            warm_drive(&mut org, 2_000);
            let mut e = Encoder::new();
            org.save_state(&mut e);
            e.into_bytes()
        };
        let plain_bytes = snapshot(&plain_kind);
        let l4_bytes = snapshot(&l4_kind);

        let mut org = plain_kind.build();
        let mut d = Decoder::new(&l4_bytes);
        let outcome = org.load_state(&mut d).and_then(|()| d.finish());
        assert!(outcome.is_err(), "{plain_name} silently accepted a {l4_name} snapshot");

        let mut org = l4_kind.build();
        let mut d = Decoder::new(&plain_bytes);
        let outcome = org.load_state(&mut d).and_then(|()| d.finish());
        assert!(outcome.is_err(), "{l4_name} silently accepted a {plain_name} snapshot");
    }
}

/// `reset_stats` across a resize zeroes every L4 counter (including the
/// resize and flush counts) while keeping the resized geometry and the
/// resident blocks: the post-reset stream is identical whether or not
/// stats were reset after the shrink.
#[test]
fn l4_reset_stats_clears_counters_but_keeps_the_resized_tier() {
    for (name, kind) in l4_roster() {
        let mut org = kind.build();
        org.prefill();
        let (_, t) = drive(&mut org, 4_000, Cycle::ZERO);
        resize_l4(&mut org, 2, t);
        org.reset_stats();
        let l4 = org.main_memory().unwrap().l4_stats().unwrap();
        assert_eq!(l4, memsys::dramcache::L4Stats::default(), "{name}: reset left L4 counters");
        assert_eq!(
            org.main_memory().unwrap().l4().unwrap().n_banks(),
            2,
            "{name}: reset must not undo the resize"
        );

        // A twin that never resets takes the same transitions.
        let mut twin = kind.build();
        twin.prefill();
        let (_, t2) = drive(&mut twin, 4_000, Cycle::ZERO);
        assert_eq!(t, t2);
        resize_l4(&mut twin, 2, t2);
        let (out_reset, _) = drive(&mut org, 4_000, t);
        let (out_plain, _) = drive(&mut twin, 4_000, t2);
        assert_eq!(out_reset, out_plain, "{name}: reset_stats changed behavior");
    }
}

/// Pins every organization's bytes: for the roster plus NuRAPID over the
/// L4 tier, the FNV-1a-128 digest of the organization's `save_state`
/// payload after a functional warm-up of `mcf`, and of the
/// `OrgReport::save_state` encoding (every count plus the energy's bit
/// pattern) after a detailed stretch behind the drain barrier. A
/// refactor of any organization must leave both digests untouched.
#[test]
fn organization_state_is_pinned() {
    use cpu::uop::TraceSource;
    use experiments::engine::build;
    use simbase::digest::Hasher128;
    use simtel::TelemetrySink;
    const WARMUP: u64 = 30_000;
    const DETAILED: u64 = 30_000;
    const PINNED: [(&str, &str, &str); 8] = [
        ("base", "c30acc37ed6bb065a801cbc6f6f0ac10", "90947883af051aba2d34a2217d08d144"),
        (
            "nurapid",
            "27640433c1d04516880611b445212490",
            "5a8b6be5b70db3ccb913dc4e5e3d2197",
        ),
        (
            "coupled",
            "7a0e5c390275857ba94ea89958aa2ea2",
            "a8f074c6e4dfdcde44e076b7edc2ee9d",
        ),
        (
            "dnuca-ss-performance",
            "7ecb9106efc38f1a16274486836591ac",
            "09f1ddae7b4af5f20055595e013ca3fe",
        ),
        (
            "dnuca-ss-energy",
            "7ecb9106efc38f1a16274486836591ac",
            "5aa5e9e7d137468ba6d5b206e44598e2",
        ),
        (
            "dnuca-way-memo",
            "7ecb9106efc38f1a16274486836591ac",
            "9d6143c8fda3aa6693498d9f3dc824cd",
        ),
        ("cnuca", "3ea94a8ee109a6fc6e202e584014c362", "fd59affcb731d119339c79f5f9233d64"),
        (
            "nurapid+l4",
            "a9c5b81ce8896ccceee91ec8e5ce14b6",
            "5a8b6be5b70db3ccb913dc4e5e3d2197",
        ),
    ];
    let digest = |bytes: Vec<u8>| {
        let mut h = Hasher128::new();
        h.write_bytes(&bytes);
        h.digest().hex()
    };
    let mut kinds: Vec<(String, L2Kind)> =
        roster().into_iter().map(|(n, k)| (n.to_string(), k)).collect();
    kinds.extend(l4_roster().into_iter().filter(|(n, _)| n == "nurapid+l4"));
    let app = workloads::profiles::by_name("mcf").expect("in roster");
    let mut got = Vec::new();
    for (name, kind) in &kinds {
        let (mut core, mut gen) = build(app, kind);
        core.warm_run(&mut gen, WARMUP);
        let mut e = Encoder::new();
        core.mem().lower().save_state(&mut e);
        let warm = digest(e.into_bytes());
        let mut core = core.drain_barrier(|org| org.drain_barrier(&TelemetrySink::disabled(), 0));
        for _ in 0..DETAILED {
            core.execute(gen.next_op());
        }
        let mut e = Encoder::new();
        core.mem().lower().report().save_state(&mut e);
        got.push((name.clone(), warm, digest(e.into_bytes())));
    }
    assert_eq!(got.len(), PINNED.len());
    for ((name, warm, report), (want_name, want_warm, want_report)) in got.iter().zip(PINNED) {
        assert_eq!(name, want_name, "roster order changed");
        assert_eq!(warm, want_warm, "{name}: warm-up payload drifted");
        assert_eq!(report, want_report, "{name}: detailed report drifted");
    }
}

/// The reports of distance-structured organizations expose their d-group
/// geometry; the base hierarchy reports none. This pins the shape the
/// table renderers rely on.
#[test]
fn report_shapes_match_the_organization() {
    let expected_groups = |rep: &OrgReport, name: &str| match name {
        "base" => assert!(rep.group_hits.is_empty(), "base has no d-groups"),
        "nurapid" | "coupled" => assert_eq!(rep.group_hits.len(), 4, "{name}"),
        _ => assert_eq!(rep.group_hits.len(), 8, "{name}"),
    };
    for (name, kind) in roster() {
        let mut org = kind.build();
        org.prefill();
        let _ = drive(&mut org, 3_000, Cycle::ZERO);
        expected_groups(&org.report(), name);
    }
}
