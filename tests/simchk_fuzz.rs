//! Randomized coverage for the `simbase::snapshot` checkpoint container:
//! seal→open round trips must be bit-exact for arbitrary payloads, and a
//! checkpoint that was truncated, corrupted, or written by a different
//! codec version must *never* open — a silently-wrong cache restore would
//! poison every measured number downstream.
//!
//! The container framing (magic / version / length / four-lane checksum)
//! is pinned by unit tests in `simbase::snapshot`; these properties fuzz
//! what the pin can't cover: every payload length, every cut point an
//! interrupted write could leave behind, every single-byte corruption,
//! and arbitrary typed-field sequences through `Encoder` / `Decoder`.
//! End-to-end cases check that a checkpoint file of the previous layout
//! revision is rebuilt by the store, never decoded, that a damaged
//! file streamed into a system is rebuilt and never reused, and that a
//! damaged finished-run file in a results store is simulated again.

use simbase::snapshot::{open, seal, Decoder, Encoder, SnapshotError, MAGIC, OVERHEAD};
use simkit::prop::{any_u64, any_u8, checker, range_u32, range_u64, select, vec_of, Checker, Gen};

fn fprop(name: &str) -> Checker {
    checker(name)
        .cases(64)
        .corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/differential-regressions.txt"))
}

fn any_u32() -> impl Gen<Value = u32> {
    range_u32(0, u32::MAX)
}

/// 1. Seal → open returns the exact payload for any payload and version,
/// and sealing is deterministic (same input → same container bytes).
#[test]
fn simchk_roundtrip_is_bit_exact() {
    let gen = (vec_of(any_u8(), 0, 512), any_u32());
    fprop("simchk_roundtrip_is_bit_exact").check(&gen, |(payload, version)| {
        let sealed = seal(*version, payload);
        assert_eq!(sealed.len(), payload.len() + OVERHEAD);
        assert_eq!(&sealed[..8], &MAGIC, "container must lead with the magic");
        let reopened = open(&sealed, *version).expect("own seal must open");
        assert_eq!(reopened, payload.as_slice(), "open changed the payload");
        assert_eq!(seal(*version, payload), sealed, "seal is not deterministic");
    });
}

/// 2. A container cut at ANY point strictly inside it never opens: every
/// cut reports `Truncated` once the magic prefix matches, and cuts inside
/// a mismatching prefix report `BadMagic`. No cut may yield `Ok`.
#[test]
fn simchk_truncation_never_opens() {
    let gen = (vec_of(any_u8(), 0, 256), any_u32(), any_u64());
    fprop("simchk_truncation_never_opens").check(&gen, |(payload, version, cut_seed)| {
        let sealed = seal(*version, payload);
        let cut = (cut_seed % sealed.len() as u64) as usize;
        let err = open(&sealed[..cut], *version).expect_err("truncated container opened");
        // Inside the magic the prefix still matches MAGIC, so the codec
        // can (and does) say Truncated; from byte 8 on it must.
        assert_eq!(err, SnapshotError::Truncated, "cut at {cut}/{}", sealed.len());
    });
}

/// 3. Flipping any single byte of a sealed container never opens as the
/// original payload. Whatever layer the corruption lands in — magic,
/// version, length, payload, checksum — some check must reject it.
#[test]
fn simchk_single_byte_corruption_never_opens() {
    let gen = (
        vec_of(any_u8(), 0, 256),
        any_u32(),
        any_u64(),
        select((1u8..=255).collect::<Vec<_>>()),
    );
    fprop("simchk_single_byte_corruption_never_opens").check(
        &gen,
        |(payload, version, victim_seed, flip)| {
            let mut sealed = seal(*version, payload);
            let victim = (victim_seed % sealed.len() as u64) as usize;
            sealed[victim] ^= *flip; // flip != 0, so the byte really changes
            let err = open(&sealed, *version).expect_err("corrupt container opened");
            match (victim, err) {
                (0..=7, SnapshotError::BadMagic) => {}
                (8..=11, SnapshotError::VersionMismatch { expected, .. }) => {
                    assert_eq!(expected, *version);
                }
                // A corrupted length field can claim too few bytes
                // (Truncated / trailing-bytes Malformed) or overflow; a
                // corrupted payload or checksum must fail the checksum.
                (12..=19, SnapshotError::Truncated)
                | (12..=19, SnapshotError::Malformed(_))
                | (_, SnapshotError::ChecksumMismatch) => {}
                (at, other) => panic!("byte {at} flipped by {flip:#x}: unexpected {other:?}"),
            }
        },
    );
}

/// 4. A snapshot sealed by codec version `v` opened expecting `w != v`
/// reports exactly `VersionMismatch {{ found: v, expected: w }}` — the
/// reader learns both sides, and the store treats it as a rebuild, never
/// a decode of stale state.
#[test]
fn simchk_version_mismatch_reports_both_versions() {
    let gen = (vec_of(any_u8(), 0, 64), any_u32(), any_u32());
    fprop("simchk_version_mismatch_reports_both_versions").check(
        &gen,
        |(payload, sealed_v, opened_v)| {
            let sealed = seal(*sealed_v, payload);
            let got = open(&sealed, *opened_v);
            if sealed_v == opened_v {
                assert_eq!(got.expect("matching version opens"), payload.as_slice());
            } else {
                assert_eq!(
                    got,
                    Err(SnapshotError::VersionMismatch {
                        found: *sealed_v,
                        expected: *opened_v,
                    })
                );
            }
        },
    );
}

/// 5. A checkpoint file of the previous layout revision (`SIMCHK\0\1`,
/// FNV-1a-128 checksum) at a digest's path, even one holding the right
/// payload, is a store miss: the store rebuilds the warm-up, overwrites
/// the file with the current revision, and the run's result is unchanged.
#[test]
fn simchk_previous_revision_file_is_rebuilt_not_decoded() {
    use experiments::checkpoint::{CHECKPOINT_EXT, CHECKPOINT_VERSION};
    use experiments::runner::run_app_opts;
    use experiments::{warmup_digest, CheckpointStore, L2Kind, RunOptions, Scale};
    use simbase::digest::Hasher128;
    use simtel::TelemetrySink;

    let app = workloads::profiles::by_name("parser").expect("in roster");
    let kind = L2Kind::NuRapid(nurapid::NuRapidConfig::micro2003(4));
    let scale = Scale {
        warmup: 20_000,
        measure: 10_000,
    };
    let sink = TelemetrySink::disabled();
    let direct = run_app_opts(app, &kind, scale, &sink, 0, RunOptions::default());
    let digest = warmup_digest(&app, &kind, scale);
    // The payload the store itself would build for this digest.
    let (mut core, mut gen) = experiments::engine::build(app, &kind);
    core.warm_run(&mut gen, scale.warmup);
    let payload = experiments::engine::save_arch(&core, &gen);

    let mut old = b"SIMCHK\x00\x01".to_vec();
    old.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    old.extend_from_slice(&payload);
    let mut h = Hasher128::new();
    h.write_bytes(&old);
    old.extend_from_slice(&h.digest().raw().to_le_bytes());

    let dir = std::env::temp_dir().join(format!("simchk-old-revision-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open store");
    let path = dir.join(format!("{}.{CHECKPOINT_EXT}", digest.hex()));
    std::fs::write(&path, &old).expect("plant the old revision");

    let opts = RunOptions {
        checkpoints: Some(&store),
        ..Default::default()
    };
    let run = run_app_opts(app, &kind, scale, &sink, 0, opts);
    assert_eq!((store.hits(), store.misses()), (0, 1), "an old revision must miss");
    assert_eq!(run, direct, "the rebuilt run changed its result");
    let rewritten = std::fs::read(&path).expect("checkpoint republished");
    assert_eq!(&rewritten[..8], &MAGIC, "the file was not overwritten");
    assert_eq!(open(&rewritten, CHECKPOINT_VERSION), Ok(payload.as_slice()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// 5b. A damaged checkpoint file streams until the damage shows, then is
/// rebuilt: cuts across the header and payload, a byte flipped anywhere
/// from the magic to the checksum, version skew, and trailing bytes. A
/// flip deep in the payload decodes into the system before the checksum
/// at the end catches it, so each run that meets the damage must print
/// what a run without a store prints: the half-decoded system was dropped
/// and rebuilt, never reused. Each leaves a whole checkpoint behind.
#[test]
fn simchk_damaged_files_are_rebuilt_not_reused() {
    use experiments::checkpoint::{CHECKPOINT_EXT, CHECKPOINT_VERSION};
    use experiments::runner::run_app_opts;
    use experiments::{warmup_digest, CheckpointStore, L2Kind, L4Config, RunOptions, Scale};
    use simtel::TelemetrySink;

    let app = workloads::profiles::by_name("parser").expect("in roster");
    let scale = Scale {
        warmup: 20_000,
        measure: 10_000,
    };
    let sink = TelemetrySink::disabled();
    let nf4 = L2Kind::NuRapid(nurapid::NuRapidConfig::micro2003(4));
    for kind in [nf4.clone(), L2Kind::L4(Box::new(nf4), L4Config::tdram())] {
        let direct = run_app_opts(app, &kind, scale, &sink, 0, RunOptions::default());
        let dir = std::env::temp_dir().join(format!("simchk-damaged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        assert_eq!(run_app_opts(app, &kind, scale, &sink, 0, opts), direct, "cold run");
        let digest = warmup_digest(&app, &kind, scale);
        let path = dir.join(format!("{}.{CHECKPOINT_EXT}", digest.hex()));
        let good = std::fs::read(&path).expect("checkpoint published");
        let n = good.len();

        let mut damaged: Vec<(String, Vec<u8>)> = [0, 7, 20, 21, n / 2, n - 17, n - 1]
            .into_iter()
            .map(|cut| (format!("cut at {cut}"), good[..cut].to_vec()))
            .collect();
        for at in [
            0,
            9,
            13,
            20,
            21,
            60,
            100,
            n / 3,
            n / 2,
            2 * n / 3,
            n - 40,
            n - 17,
            n - 1,
        ] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            damaged.push((format!("byte {at} flipped"), bad));
        }
        let mut skewed = good.clone();
        skewed[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        damaged.push(("version skew".into(), skewed));
        let mut long = good.clone();
        long.push(0);
        damaged.push(("a trailing byte".into(), long));

        for (what, bytes) in damaged {
            std::fs::write(&path, &bytes).expect("plant the damage");
            let (hits, misses) = (store.hits(), store.misses());
            let run = run_app_opts(app, &kind, scale, &sink, 0, opts);
            assert_eq!(run, direct, "{what}: the run reused a damaged system");
            assert_eq!((store.hits() - hits, store.misses() - misses), (0, 1), "{what}");
            assert_eq!(std::fs::read(&path).expect("republished"), good, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// 5c. The results store beside the warm-up store: a finished run's file
/// that is cut, has a byte flipped, carries another version or is padded
/// is never trusted. Each damaged file makes the sweep simulate that run
/// exactly once more, the run and the report equal the ones a sweep
/// without a results store produces, and the file is republished whole.
/// Covers a full-detail `AppRun` and a `SampledRun` with its windows.
#[test]
fn simchk_damaged_result_files_are_resimulated_not_trusted() {
    use experiments::checkpoint::{CHECKPOINT_EXT, RESULTS_VERSION};
    use experiments::exps::{table3, Sweep};
    use experiments::{SampleSpec, Scale};

    let app = workloads::profiles::by_name("parser").expect("in roster");
    let scale = Scale {
        warmup: 20_000,
        measure: 10_000,
    };
    let spec = SampleSpec {
        period: 2_000,
        warmup: 100,
        measure: 400,
    };
    let sweep = || Sweep::with_apps(scale, vec![app]);
    // The report and both runs, with no results store anywhere.
    let plain = sweep();
    let want_report = table3(&plain).render();
    let want_run = (*plain.run(app, "base")).clone();
    let want_sampled = (*plain.run_sampled(app, "nf4", spec)).clone();

    /// Asks a sweep for one family's run and checks it.
    type Family<'a> = (&'a str, &'a dyn Fn(&Sweep));
    let families: [Family; 2] = [
        ("AppRun", &|s| {
            assert_eq!(table3(s).render(), want_report, "the report changed");
            assert_eq!(*s.run(app, "base"), want_run);
        }),
        ("SampledRun", &|s| assert_eq!(*s.run_sampled(app, "nf4", spec), want_sampled)),
    ];
    for (family, run) in families {
        let dir =
            std::env::temp_dir().join(format!("simres-damaged-{family}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || sweep().with_artifacts(&dir).expect("open results");
        let first = open();
        run(&first);
        assert_eq!((first.simulated(), first.resumed()), (1, 0), "{family}: cold pass");
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == CHECKPOINT_EXT))
            .collect();
        assert_eq!(files.len(), 1, "{family}: one result file per run");
        let path = &files[0];
        let good = std::fs::read(path).expect("result published");
        let n = good.len();

        let mut damaged: Vec<(String, Vec<u8>)> = [0, 7, 20, n / 2, n - 1]
            .into_iter()
            .map(|cut| (format!("cut at {cut}"), good[..cut].to_vec()))
            .collect();
        for at in [0, 9, 13, 20, 40, n / 2, n - 17, n - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            damaged.push((format!("byte {at} flipped"), bad));
        }
        let mut skewed = good.clone();
        skewed[8..12].copy_from_slice(&(RESULTS_VERSION + 1).to_le_bytes());
        damaged.push(("version skew".into(), skewed));
        let mut long = good.clone();
        long.push(0);
        damaged.push(("a trailing byte".into(), long));

        for (what, bytes) in damaged {
            std::fs::write(path, &bytes).expect("plant the damage");
            let s = open();
            run(&s);
            assert_eq!((s.simulated(), s.resumed()), (1, 0), "{family}, {what}");
            assert_eq!(std::fs::read(path).expect("republished"), good, "{family}, {what}");
        }
        let resumed = open();
        run(&resumed);
        assert_eq!((resumed.simulated(), resumed.resumed()), (0, 1), "{family}: whole file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One arbitrary typed field for the Encoder/Decoder layer.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    Bool(bool),
    Bytes(Vec<u8>),
    U64s(Vec<u64>),
    U32s(Vec<u32>),
}

fn field_gen() -> impl Gen<Value = Field> {
    struct FieldGen;
    impl Gen for FieldGen {
        type Value = Field;
        fn generate(&self, rng: &mut simbase::rng::SimRng) -> Field {
            match rng.next_u64() % 7 {
                0 => Field::U8(rng.next_u64() as u8),
                1 => Field::U32(rng.next_u64() as u32),
                2 => Field::U64(rng.next_u64()),
                3 => Field::Bool(rng.next_u64() & 1 == 1),
                4 => Field::Bytes((0..rng.next_u64() % 17).map(|_| rng.next_u64() as u8).collect()),
                5 => Field::U64s((0..rng.next_u64() % 9).map(|_| rng.next_u64()).collect()),
                _ => Field::U32s((0..rng.next_u64() % 9).map(|_| rng.next_u64() as u32).collect()),
            }
        }
        fn shrink(&self, v: &Field) -> Vec<Field> {
            // Shrink toward the smallest value of the same shape.
            match v {
                Field::U8(0) | Field::U32(0) | Field::U64(0) | Field::Bool(false) => vec![],
                Field::U8(_) => vec![Field::U8(0)],
                Field::U32(_) => vec![Field::U32(0)],
                Field::U64(_) => vec![Field::U64(0)],
                Field::Bool(_) => vec![Field::Bool(false)],
                Field::Bytes(b) if b.is_empty() => vec![],
                Field::Bytes(b) => vec![Field::Bytes(b[..b.len() - 1].to_vec())],
                Field::U64s(b) if b.is_empty() => vec![],
                Field::U64s(b) => vec![Field::U64s(b[..b.len() - 1].to_vec())],
                Field::U32s(b) if b.is_empty() => vec![],
                Field::U32s(b) => vec![Field::U32s(b[..b.len() - 1].to_vec())],
            }
        }
    }
    FieldGen
}

fn encode(fields: &[Field]) -> Vec<u8> {
    let mut e = Encoder::new();
    for f in fields {
        match f {
            Field::U8(v) => e.put_u8(*v),
            Field::U32(v) => e.put_u32(*v),
            Field::U64(v) => e.put_u64(*v),
            Field::Bool(v) => e.put_bool(*v),
            Field::Bytes(v) => e.put_u8_slice(v),
            Field::U64s(v) => e.put_u64_slice(v),
            Field::U32s(v) => e.put_u32_slice(v),
        }
    }
    e.into_bytes()
}

fn decode_one(d: &mut Decoder<'_>, shape: &Field) -> Result<Field, SnapshotError> {
    Ok(match shape {
        Field::U8(_) => Field::U8(d.u8()?),
        Field::U32(_) => Field::U32(d.u32()?),
        Field::U64(_) => Field::U64(d.u64()?),
        Field::Bool(_) => Field::Bool(d.bool()?),
        Field::Bytes(_) => Field::Bytes(d.u8_slice()?),
        Field::U64s(_) => Field::U64s(d.u64_slice()?),
        Field::U32s(_) => Field::U32s(d.u32_slice()?),
    })
}

/// 5. Any typed field sequence round-trips field-for-field through
/// Encoder → seal → open → Decoder, and `finish()` proves the decoder
/// consumed exactly the bytes the encoder wrote.
#[test]
fn simchk_typed_fields_roundtrip_through_container() {
    let gen = (vec_of(field_gen(), 0, 40), any_u32());
    fprop("simchk_typed_fields_roundtrip_through_container").check(&gen, |(fields, version)| {
        let sealed = seal(*version, &encode(fields));
        let payload = open(&sealed, *version).expect("own seal opens");
        let mut d = Decoder::new(payload);
        for want in fields {
            let got = decode_one(&mut d, want).expect("clean payload decodes");
            assert_eq!(&got, want, "decode changed a field");
        }
        d.finish().expect("decoder must consume the whole payload");
    });
}

/// 6. A typed payload cut at any interior point fails with `Truncated`
/// (or a bounds-check `Malformed` when the cut lands inside a
/// length-prefixed slice) — it never decodes a wrong value, and every
/// field before the cut still decodes exactly.
#[test]
fn simchk_typed_truncation_fails_cleanly() {
    let gen = (vec_of(field_gen(), 1, 24), range_u64(0, u64::MAX));
    fprop("simchk_typed_truncation_fails_cleanly").check(&gen, |(fields, cut_seed)| {
        let bytes = encode(fields);
        if bytes.is_empty() {
            return;
        }
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut d = Decoder::new(&bytes[..cut]);
        let mut decoded = 0usize;
        let err = loop {
            if decoded == fields.len() {
                // The cut removed bytes, so the decoder must notice that
                // something is missing before reproducing every field.
                panic!("truncated payload decoded all {decoded} fields");
            }
            match decode_one(&mut d, &fields[decoded]) {
                Ok(got) => {
                    assert_eq!(&got, &fields[decoded], "prefix field changed");
                    decoded += 1;
                }
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::Malformed(_)),
            "unexpected error {err:?} after {decoded} fields"
        );
    });
}

/// 7. Length-prefixed sections round-trip through the container for any
/// payload size — *including* zero-length and single-byte sections, the
/// two sizes where an off-by-one in the length framing or the
/// sub-decoder slice bounds would hide — and a field written after the
/// section list still decodes, proving every section advanced the outer
/// decoder by exactly its framed size.
#[test]
fn simchk_sections_roundtrip_including_degenerate_sizes() {
    let gen = (vec_of(vec_of(any_u8(), 0, 16), 0, 12), any_u32(), any_u64());
    fprop("simchk_sections_roundtrip_including_degenerate_sizes").check(
        &gen,
        |(sections, version, sentinel)| {
            let mut e = Encoder::new();
            e.put_len(sections.len());
            for s in sections {
                e.put_section(|inner| {
                    for &b in s {
                        inner.put_u8(b);
                    }
                });
            }
            e.put_u64(*sentinel);
            let sealed = seal(*version, &e.into_bytes());
            let payload = open(&sealed, *version).expect("own seal opens");
            let mut d = Decoder::new(payload);
            assert_eq!(d.len().expect("section count"), sections.len());
            for want in sections {
                let mut sd = d.section().expect("section opens");
                assert_eq!(sd.remaining(), want.len(), "section framed a wrong size");
                for &b in want {
                    assert_eq!(sd.u8().expect("section byte"), b);
                }
                sd.finish().expect("section fully consumed");
            }
            assert_eq!(d.u64().expect("post-section field"), *sentinel);
            d.finish().expect("outer decoder must land on the end");
        },
    );
}

/// 8. Empty and single-byte sections skip cleanly: a reader that calls
/// `section()` and discards the sub-decoder lands exactly on the next
/// field, whether the skipped section held zero bytes, one byte, or a
/// mix — the skip path must not depend on the section's contents.
#[test]
fn simchk_degenerate_sections_skip_cleanly() {
    let gen = (vec_of(range_u64(0, 1), 1, 24), any_u8(), any_u32());
    fprop("simchk_degenerate_sections_skip_cleanly").check(&gen, |(sizes, fill, version)| {
        let mut e = Encoder::new();
        for &n in sizes {
            e.put_section(|inner| {
                for _ in 0..n {
                    inner.put_u8(*fill);
                }
            });
        }
        e.put_u32(0xC0DE);
        let sealed = seal(*version, &e.into_bytes());
        let payload = open(&sealed, *version).expect("own seal opens");
        let mut d = Decoder::new(payload);
        for &n in sizes {
            let skipped = d.section().expect("section skips");
            assert_eq!(skipped.remaining() as u64, n);
        }
        assert_eq!(d.u32().expect("sentinel after sections"), 0xC0DE);
        d.finish().expect("skip path must consume whole sections");
    });
}

/// A small populated L4 DRAM-cache tier and its snapshot section bytes:
/// random warm traffic, then a resize (so retired/live slot framing is
/// exercised), then `save_state`.
fn l4_section(ops: &[(u64, bool)], target: u32) -> (memsys::dramcache::L4Config, Vec<u8>) {
    use memsys::dramcache::{L4Config, L4DramCache};
    let cfg = L4Config {
        n_banks: 4,
        bank_blocks: 64,
        assoc: 4,
        vnodes_per_bank: 8,
        tag_cache_entries: 16,
        ..L4Config::tdram()
    };
    let mut l4 = L4DramCache::new(cfg.clone());
    let mut dram = memsys::memory::MainMemory::micro2003();
    for &(b, w) in ops {
        let block = simbase::BlockAddr::from_index(b);
        if w {
            l4.warm_writeback(block);
        } else {
            l4.warm_fill(block);
        }
    }
    l4.resize(target, simbase::Cycle::ZERO, &mut dram);
    let mut e = Encoder::new();
    l4.save_state(&mut e);
    (cfg, e.into_bytes())
}

/// 9. An L4 snapshot section cut at any strict interior point never
/// loads: whatever the cut removes — header, bank map, a slot's tag or
/// dirty words, the LRU table — the decoder reports an error instead of
/// restoring a partial tier.
#[test]
fn l4_section_truncation_never_loads() {
    let gen = (
        vec_of((range_u64(0, 2_048), simkit::prop::any_bool()), 1, 200),
        range_u32(1, 7),
        any_u64(),
    );
    fprop("l4_section_truncation_never_loads").check(&gen, |(ops, target, cut_seed)| {
        let (cfg, bytes) = l4_section(ops, *target);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut fresh = memsys::dramcache::L4DramCache::new(cfg);
        let err = fresh.load_state(&mut Decoder::new(&bytes[..cut]));
        assert!(err.is_err(), "cut at {cut}/{} loaded", bytes.len());
    });
}

/// 10. Corrupting the L4 section framing never loads: any change to the
/// magic (bytes 0..8) or the layout version (bytes 8..12) is rejected as
/// `Malformed` before a single bank byte is interpreted. Payload-byte
/// corruption is the sealed container checksum's job (property 3); the
/// framing must hold even for bytes the checksum never sees.
#[test]
fn l4_section_header_corruption_never_loads() {
    let gen = (
        vec_of((range_u64(0, 2_048), simkit::prop::any_bool()), 1, 100),
        range_u32(1, 7),
        range_u64(0, 11),
        select((1u8..=255).collect::<Vec<_>>()),
    );
    fprop("l4_section_header_corruption_never_loads").check(&gen, |(ops, target, victim, flip)| {
        let (cfg, mut bytes) = l4_section(ops, *target);
        bytes[*victim as usize] ^= *flip;
        let mut fresh = memsys::dramcache::L4DramCache::new(cfg);
        let err = fresh.load_state(&mut Decoder::new(&bytes));
        assert!(
            matches!(err, Err(SnapshotError::Malformed(_))),
            "header byte {victim} flipped by {flip:#x}: got {err:?}"
        );
    });
}

/// 11. Version skew on `L4_SNAPSHOT_VERSION` is rejected for every other
/// version value: a section written by a future (or past) layout never
/// decodes into this one, independent of the payload that follows.
#[test]
fn l4_section_version_skew_is_rejected() {
    let gen = (
        vec_of((range_u64(0, 2_048), simkit::prop::any_bool()), 1, 100),
        range_u32(1, 7),
        range_u32(0, u32::MAX),
    );
    fprop("l4_section_version_skew_is_rejected").check(&gen, |(ops, target, skewed)| {
        let (cfg, mut bytes) = l4_section(ops, *target);
        bytes[8..12].copy_from_slice(&skewed.to_le_bytes());
        let mut fresh = memsys::dramcache::L4DramCache::new(cfg.clone());
        let got = fresh.load_state(&mut Decoder::new(&bytes));
        if *skewed == memsys::dramcache::L4_SNAPSHOT_VERSION {
            assert!(got.is_ok(), "the genuine version must still load");
        } else {
            assert!(
                matches!(got, Err(SnapshotError::Malformed(_))),
                "version {skewed} decoded: {got:?}"
            );
        }
    });
}
