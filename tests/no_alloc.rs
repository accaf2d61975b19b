//! Steady-state allocation guard — the fourth leg of the Organization
//! conformance contract (see `tests/organization_conformance.rs`): after
//! warm-up, the per-access hot path of **every** organization the
//! [`L2Kind::build`] factory produces must not touch the heap at all.
//!
//! The flat-arena rewrite removed the per-access `Vec` churn the original
//! implementations carried (candidate lists in the D-NUCA search paths,
//! recency reordering in the naive LRU, `VecDeque` pruning in the port
//! schedule). This test pins that property with a counting global
//! allocator: drive each organization past its warm-up transient (free
//! lists drained, port-schedule and run buffers at their high-water
//! capacity), then require the allocation count to stay *exactly* flat
//! over a long measured window.
//!
//! The out-of-order core joins the guard: over a prefilled `nf4`, its
//! detailed `execute` and functional `warm_execute` paths allocate
//! nothing either once the system is past its warm-up.
//!
//! Checkpoint restores join it too: `Organization::load_state` decodes
//! into the buffers an unfilled instance already owns, so restoring a
//! warmed payload into one allocates nothing, and streaming it from a
//! sealed container allocates only the decoder's one chunk buffer. A
//! CMP restore allocates only its sharer directory, once, at the size
//! the stored block count needs, and nothing when the directory it
//! restores over already has room.
//!
//! The whole file is a single `#[test]` because the counter is
//! process-global: parallel test threads would attribute their setup
//! allocations to whichever window happens to be open.

use cmp::{CmpConfig, CmpSystem};
use cpu::uop::{MicroOp, TraceSource};
use experiments::cmp::cmp_profiles;
use experiments::exps::kind_of;
use experiments::runner::TRACE_SEED;
use experiments::L2Kind;
use memsys::org::Organization;
use nuca::{CnucaConfig, SearchPolicy};
use nurapid::NuRapidConfig;
use simbase::snapshot::{self, Decoder, Encoder};
use simbase::{AccessKind, BlockAddr, Cycle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A deterministic mixed read/write stream with enough footprint to keep
/// hits, misses, evictions, demotion chains, and promotions all live.
fn drive(cache: &mut Box<dyn Organization>, accesses: u64, footprint: u64) -> Cycle {
    let mut t = Cycle::ZERO;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..accesses {
        // xorshift: cheap, allocation-free, full-period enough here.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = BlockAddr::from_index(x % footprint);
        let kind = if i % 3 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let out = cache.access(block, kind, t);
        t = out.complete_at + 1;
    }
    t
}

/// Saves a warmed `kind` and requires restoring the payload into an
/// unfilled instance to allocate nothing, and streaming it from a sealed
/// container to allocate only the decoder's chunk buffer.
fn measure_restore(name: &str, kind: &L2Kind) {
    let mut warm = kind.build();
    warm.prefill();
    drive(&mut warm, 50_000, 262_144);
    warm.drain_timing();
    let mut e = Encoder::new();
    warm.save_state(&mut e);
    let bytes = e.into_bytes();
    drop(warm);

    let mut bare = kind.build();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut d = Decoder::new(&bytes);
    let restored = bare.load_state(&mut d).and_then(|()| d.finish());
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    restored.unwrap_or_else(|err| panic!("{name}: restore failed: {err:?}"));
    assert_eq!(after - before, 0, "{name}: {} heap allocations in one restore", after - before);

    let sealed = snapshot::seal(1, &bytes);
    let mut bare = kind.build();
    let mut src = &sealed[..];
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let restored = Decoder::stream(&mut src, 1)
        .and_then(|mut d| bare.load_state(&mut d).and_then(|()| d.finish()));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    restored.unwrap_or_else(|err| panic!("{name}: streamed restore failed: {err:?}"));
    assert_eq!(
        after - before,
        1,
        "{name}: {} heap allocations in one streamed restore, not just the chunk buffer",
        after - before
    );
}

/// Saves a warmed 4-core system over `nf4`, whose sharer directory grew
/// through many doublings, then restores it twice into one unfilled
/// system: the first restore allocates the directory once, the second
/// reuses it and allocates nothing.
fn measure_cmp_restore() {
    let cores = 4;
    let apps = cmp_profiles(cores);
    let build = || {
        CmpSystem::unfilled(CmpConfig::micro2003(cores), kind_of("nf4").build(), &apps, TRACE_SEED)
    };
    let mut warm = build();
    warm.prefill();
    warm.warm_run(20_000);
    let mut e = Encoder::new();
    warm.save_state(&mut e);
    let bytes = e.into_bytes();
    drop(warm);

    let mut bare = build();
    for (pass, want) in [("into an unfilled system", 1), ("over the same system", 0)] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut d = Decoder::new(&bytes);
        let restored = bare.load_state(&mut d).and_then(|()| d.finish());
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        restored.unwrap_or_else(|err| panic!("CMP restore {pass} failed: {err:?}"));
        assert_eq!(after - before, want, "CMP restore {pass}: {} heap allocations", after - before);
    }
}

fn measure(name: &str, cache: &mut Box<dyn Organization>, footprint: u64) {
    // Warm-up: fill the cache, drain every free list, and let internal
    // buffers (port schedule, memory queue) reach steady capacity.
    drive(cache, 150_000, footprint);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drive(cache, 40_000, footprint);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "{name}: {} heap allocations in 40k steady-state accesses",
        after - before
    );
}

/// Runs the full core over a prefilled `nf4`: warm it up in both modes,
/// then require 10 k `execute` and 10 k `warm_execute` calls to leave the
/// allocation count flat. The ops are drawn from the trace generator
/// before the window opens, so only the core and its memory system are
/// measured.
fn measure_core() {
    let (mut core, mut gen) = experiments::engine::build(workloads::ROSTER[0], &kind_of("nf4"));
    core.warm_run(&mut gen, 100_000);
    core.run(&mut gen, 100_000);
    let ops: Vec<MicroOp> = (0..20_000).map(|_| gen.next_op()).collect();
    let (detailed, functional) = ops.split_at(10_000);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for op in detailed {
        core.execute(*op);
    }
    for op in functional {
        core.warm_execute(*op);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "OooCore over nf4: {} heap allocations in 10k execute + 10k warm_execute calls",
        after - before
    );
}

#[test]
fn steady_state_access_paths_do_not_allocate() {
    // Footprint 4x the 8-MB block count so misses, tag evictions, and
    // full demotion/promotion chains fire constantly. The base
    // hierarchy's smaller L2/L3 thrash even harder, which is the point.
    let roster: [(&str, L2Kind); 7] = [
        ("base", L2Kind::Base),
        ("nurapid", L2Kind::NuRapid(NuRapidConfig::micro2003(4))),
        ("coupled", L2Kind::Coupled(4)),
        ("dnuca-ss-performance", L2Kind::Dnuca(SearchPolicy::SsPerformance)),
        ("dnuca-ss-energy", L2Kind::Dnuca(SearchPolicy::SsEnergy)),
        ("dnuca-way-memo", L2Kind::Dnuca(SearchPolicy::WayMemo)),
        ("cnuca", L2Kind::Cnuca(CnucaConfig::micro2003())),
    ];
    for (name, kind) in roster {
        measure_restore(name, &kind);
        let mut org = kind.build();
        org.prefill();
        measure(name, &mut org, 262_144);
    }
    measure_cmp_restore();

    // The L4 DRAM-cache tier joins the contract: after a shrink (which
    // may allocate while it retires banks and flushes dirty blocks) and
    // a grow (which allocates the fresh banks), the steady-state access
    // path through the resized tier — tag-cache probes, ring lookups,
    // fills into live banks, orphaned blocks aging out — must stay
    // allocation-free. One representative inner organization suffices:
    // the tier wraps every roster entry through the same MainMemory
    // entry points.
    let kind = L2Kind::L4(
        Box::new(L2Kind::NuRapid(NuRapidConfig::micro2003(4))),
        experiments::L4Config::tdram(),
    );
    let mut org = kind.build();
    org.prefill();
    drive(&mut org, 100_000, 262_144);
    let resize = |org: &mut Box<dyn Organization>, target: u32| {
        org.main_memory_mut()
            .expect("the L4 wrapper is DRAM-backed")
            .resize_l4(target, Cycle::ZERO);
    };
    resize(&mut org, 4);
    resize(&mut org, 12);
    measure("nurapid+l4 after shrink+grow", &mut org, 262_144);

    measure_core();
}
