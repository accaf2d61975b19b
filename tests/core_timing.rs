//! Pins the out-of-order core's timing, op by op, on every roster app.
//!
//! For each application the test builds the paper's system over a
//! four-d-group NuRAPID (`nf4`) through [`experiments::engine::build`],
//! warms it functionally, crosses the drain barrier, and then executes
//! detailed ops while hashing the commit clock after every one of them,
//! plus the final [`cpu::CoreResult`]. Any change to fetch, dependency
//! tracking, functional-unit occupancy, the RUU/LSQ bounds or commit
//! bandwidth moves some cycle and therefore the digest. The digests were
//! computed with the original `VecDeque` formulation of the core, which
//! `cpu::naive::NaiveOooCore` keeps as the differential oracle.

use cpu::uop::TraceSource;
use experiments::engine::build;
use experiments::exps::kind_of;
use simbase::digest::Hasher128;
use simtel::TelemetrySink;
use workloads::ROSTER;

const WARMUP: u64 = 20_000;
const DETAILED: u64 = 50_000;

/// `(app, digest of every per-op cycle count and the final result)`.
const PINNED: [(&str, &str); 15] = [
    ("applu", "72acf9cef90230f8510d1714440e87b7"),
    ("apsi", "c857f80851659b5ca0ef0d4ef4fa163a"),
    ("art", "d7d5bbfeaea3dbf9da282124a8b8a752"),
    ("bzip2", "9fa512130243cc0693ea7046613ebaf9"),
    ("equake", "59b4e763860d26988d9f643783b4ac3c"),
    ("galgel", "76290bb453542ae47a71969f7a9ebab5"),
    ("gcc", "d442cfacbef2a2b9955f43b4d3dba484"),
    ("mcf", "eb0ae86aacfcd13ecb8aef386fc65997"),
    ("mgrid", "464d84ab9b2e3ad2cb8b4eca2169db96"),
    ("parser", "b2f5ae5e65e5023c061e974a72294c2d"),
    ("swim", "674c18876d7508ab18e0b60f67e06fdc"),
    ("twolf", "919328a0e4e4aa2b79dfcf407b7ab2fd"),
    ("vpr", "54e7d545cfa1ef0a1cfd07d424ca6254"),
    ("lucas", "c1a768cc6be52efb734781a29904a540"),
    ("wupwise", "f8fc4fbed7121f16b976a58daad23d22"),
];

#[test]
fn core_timing_is_pinned() {
    let kind = kind_of("nf4");
    let mut got = Vec::new();
    for profile in ROSTER {
        let (mut core, mut gen) = build(profile, &kind);
        core.warm_run(&mut gen, WARMUP);
        let mut core = core.drain_barrier(|org| org.drain_barrier(&TelemetrySink::disabled(), 0));
        let mut h = Hasher128::new();
        for _ in 0..DETAILED {
            core.execute(gen.next_op());
            h.write_u64(core.cycles());
        }
        let r = core.finish();
        for v in [
            r.instructions,
            r.cycles,
            r.loads,
            r.stores,
            r.branches,
            r.mispredicts,
            r.int_ops,
            r.fp_ops,
        ] {
            h.write_u64(v);
        }
        got.push((profile.name, h.digest().hex()));
    }
    for ((name, hex), (want_name, want_hex)) in got.iter().zip(PINNED) {
        assert_eq!(*name, want_name, "roster order changed");
        assert_eq!(hex, want_hex, "{name}: core timing moved");
    }
}
