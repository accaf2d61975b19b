//! JSON codec for [`AppRun`] and [`CmpRun`] — the payloads of simsched
//! run artifacts.
//!
//! Every `f64` is stored as its IEEE-754 **bit pattern** (a `u64` field
//! named `*_bits`), because a resumed sweep must reproduce results
//! **bit-identically**: re-parsing a shortest-roundtrip decimal is exact
//! in theory, but bit patterns make the guarantee structural and the
//! manifest greppable for exact equality. A few derived, human-readable
//! fields (`ipc`) are written for manifest readers and ignored by the
//! decoder.
//!
//! The two payload shapes are mutually exclusive by construction: an
//! [`AppRun`] payload carries an `"app"` field and a [`CmpRun`] payload
//! a `"cmp_cores"` field, and each decoder requires its own
//! discriminator, so a digest collision across families (impossible by
//! domain separation anyway) could never decode the wrong type.

use crate::cmp::CmpRun;
use crate::engine::Counters;
use crate::exps::DramRun;
use crate::runner::{AppRun, TransientWindow};
use crate::sampling::{SampleSpec, SampledRun, WindowObs};
use cpu::CoreResult;
use energy::EnergyTally;
use memsys::dramcache::L4Stats;
use memsys::org::OrgReport;
use simbase::EnergyNj;
use simsched::json::Json;

fn f64_bits(v: f64) -> Json {
    Json::U64(v.to_bits())
}

fn bits_f64(j: &Json) -> Option<f64> {
    j.as_u64().map(f64::from_bits)
}

/// Decodes an energy from its bit pattern, rejecting the negative and
/// non-finite patterns [`EnergyNj::new`] would panic on.
fn bits_energy(j: &Json) -> Option<EnergyNj> {
    let nj = bits_f64(j)?;
    (nj.is_finite() && nj >= 0.0).then(|| EnergyNj::new(nj))
}

fn u64s(j: &Json) -> Option<Vec<u64>> {
    j.as_arr()?.iter().map(Json::as_u64).collect()
}

/// Encodes a run as a JSON object (the artifact payload).
pub fn encode(run: &AppRun) -> Json {
    Json::obj(vec![
        ("app", Json::Str(run.name.to_string())),
        ("ipc", Json::F64((run.ipc() * 1e4).round() / 1e4)),
        ("core", encode_core(&run.core)),
        ("l2_accesses", Json::U64(run.l2_accesses)),
        ("l2_misses", Json::U64(run.l2_misses)),
        (
            "group_frac_bits",
            Json::Arr(run.group_fracs.iter().map(|&f| f64_bits(f)).collect()),
        ),
        ("miss_frac_bits", f64_bits(run.miss_frac)),
        ("dgroup_accesses", Json::U64(run.dgroup_accesses)),
        ("swaps", Json::U64(run.swaps)),
        ("l2_energy_bits", f64_bits(run.l2_energy.nj())),
        ("energy_bits", encode_energy(&run.energy)),
    ])
}

/// Decodes a run from an artifact payload. Returns `None` if any field
/// is missing or ill-typed (the caller then re-simulates), or if the
/// application name is not in the roster.
pub fn decode(j: &Json) -> Option<AppRun> {
    let name = workloads::profiles::by_name(j.field("app")?.as_str()?)?.name;
    let u = |k: &str| j.field(k)?.as_u64();
    Some(AppRun {
        name,
        core: decode_core(j.field("core")?)?,
        l2_accesses: u("l2_accesses")?,
        l2_misses: u("l2_misses")?,
        group_fracs: j
            .field("group_frac_bits")?
            .as_arr()?
            .iter()
            .map(bits_f64)
            .collect::<Option<Vec<f64>>>()?,
        miss_frac: bits_f64(j.field("miss_frac_bits")?)?,
        dgroup_accesses: u("dgroup_accesses")?,
        swaps: u("swaps")?,
        l2_energy: bits_energy(j.field("l2_energy_bits")?)?,
        energy: decode_energy(j.field("energy_bits")?)?,
    })
}

fn encode_core(c: &CoreResult) -> Json {
    Json::obj(vec![
        ("instructions", Json::U64(c.instructions)),
        ("cycles", Json::U64(c.cycles)),
        ("loads", Json::U64(c.loads)),
        ("stores", Json::U64(c.stores)),
        ("branches", Json::U64(c.branches)),
        ("mispredicts", Json::U64(c.mispredicts)),
        ("int_ops", Json::U64(c.int_ops)),
        ("fp_ops", Json::U64(c.fp_ops)),
    ])
}

fn decode_core(j: &Json) -> Option<CoreResult> {
    let u = |k: &str| j.field(k)?.as_u64();
    Some(CoreResult {
        instructions: u("instructions")?,
        cycles: u("cycles")?,
        loads: u("loads")?,
        stores: u("stores")?,
        branches: u("branches")?,
        mispredicts: u("mispredicts")?,
        int_ops: u("int_ops")?,
        fp_ops: u("fp_ops")?,
    })
}

/// Encodes an organization report: integer counts, d-group hits
/// included, plus the energy's bit pattern. Nested under its own key
/// (`"report"` in a CMP payload, `"org"` in a window's counters), so a
/// payload written before the hits became counts — flat, with
/// `group_frac_bits` — can never decode as one.
fn encode_org(r: &OrgReport) -> Json {
    Json::obj(vec![
        ("l2_accesses", Json::U64(r.l2_accesses)),
        ("l2_misses", Json::U64(r.l2_misses)),
        (
            "group_hits",
            Json::Arr(r.group_hits.iter().map(|&h| Json::U64(h)).collect()),
        ),
        ("dgroup_accesses", Json::U64(r.dgroup_accesses)),
        ("swaps", Json::U64(r.swaps)),
        ("memory_accesses", Json::U64(r.memory_accesses)),
        ("l2_energy_bits", f64_bits(r.l2_energy.nj())),
    ])
}

fn decode_org(j: &Json) -> Option<OrgReport> {
    let u = |k: &str| j.field(k)?.as_u64();
    Some(OrgReport {
        l2_accesses: u("l2_accesses")?,
        l2_misses: u("l2_misses")?,
        group_hits: u64s(j.field("group_hits")?)?,
        dgroup_accesses: u("dgroup_accesses")?,
        swaps: u("swaps")?,
        memory_accesses: u("memory_accesses")?,
        l2_energy: bits_energy(j.field("l2_energy_bits")?)?,
    })
}

/// Encodes a CMP run as a JSON object (the artifact payload). The
/// `cmp_cores` field discriminates the family: [`decode`] requires an
/// `"app"` field this payload never has, and [`decode_cmp`] requires
/// `cmp_cores`, so the two codecs can never cross-decode.
pub fn encode_cmp(run: &CmpRun) -> Json {
    let r = &run.result;
    Json::obj(vec![
        ("cmp_cores", Json::U64(u64::from(run.cores))),
        ("config", Json::Str(run.key.to_string())),
        (
            "apps",
            Json::Arr(run.apps.iter().map(|a| Json::Str((*a).to_string())).collect()),
        ),
        ("mean_ipc", Json::F64((run.mean_ipc() * 1e4).round() / 1e4)),
        ("per_core", Json::Arr(r.per_core.iter().map(encode_core).collect())),
        ("report", encode_org(&r.report)),
        ("bank_conflicts", Json::U64(r.bank_conflicts)),
        ("bank_stall_cycles", Json::U64(r.bank_stall_cycles)),
        (
            "per_core_bank_stalls",
            Json::Arr(r.per_core_bank_stalls.iter().map(|&v| Json::U64(v)).collect()),
        ),
        (
            "invalidations",
            Json::Arr(r.invalidations.iter().map(|&v| Json::U64(v)).collect()),
        ),
    ])
}

/// Decodes a CMP run from an artifact payload. Returns `None` if any
/// field is missing or ill-typed, the configuration key is not a CMP
/// key, any application is not in the roster, or the per-core vector
/// lengths disagree with the core count (the caller then re-simulates).
pub fn decode_cmp(j: &Json) -> Option<CmpRun> {
    let cores = u32::try_from(j.field("cmp_cores")?.as_u64()?).ok()?;
    let key = crate::cmp::key_of(j.field("config")?.as_str()?)?;
    let apps = j
        .field("apps")?
        .as_arr()?
        .iter()
        .map(|a| Some(workloads::profiles::by_name(a.as_str()?)?.name))
        .collect::<Option<Vec<&'static str>>>()?;
    let per_core = j
        .field("per_core")?
        .as_arr()?
        .iter()
        .map(decode_core)
        .collect::<Option<Vec<CoreResult>>>()?;
    let per_core_bank_stalls = u64s(j.field("per_core_bank_stalls")?)?;
    let invalidations = u64s(j.field("invalidations")?)?;
    let n = cores as usize;
    if apps.len() != n
        || per_core.len() != n
        || per_core_bank_stalls.len() != n
        || invalidations.len() != n
    {
        return None;
    }
    let u = |k: &str| j.field(k)?.as_u64();
    Some(CmpRun {
        key,
        cores,
        apps,
        result: ::cmp::CmpResult {
            per_core,
            report: decode_org(j.field("report")?)?,
            bank_conflicts: u("bank_conflicts")?,
            bank_stall_cycles: u("bank_stall_cycles")?,
            per_core_bank_stalls,
            invalidations,
        },
    })
}

fn encode_window(w: &TransientWindow) -> Json {
    Json::obj(vec![
        ("n_banks", Json::U64(u64::from(w.n_banks))),
        ("counters", encode_counters(&w.counters)),
    ])
}

fn decode_window(j: &Json) -> Option<TransientWindow> {
    Some(TransientWindow {
        n_banks: u32::try_from(j.field("n_banks")?.as_u64()?).ok()?,
        counters: decode_counters(j.field("counters")?)?,
    })
}

/// Encodes a DRAM-transient run as a JSON object (the artifact
/// payload). The `dram_app` field discriminates the family — neither
/// [`decode`] (wants a top-level `"app"`) nor [`decode_cmp`] (wants
/// `"cmp_cores"`) will touch this payload, and [`decode_dram`] requires
/// `dram_app`, so the three codecs can never cross-decode. The
/// whole-run [`AppRun`] nests under `"run"` using the plain codec.
pub fn encode_dram(run: &DramRun) -> Json {
    Json::obj(vec![
        ("dram_app", Json::Str(run.run.name.to_string())),
        ("run", encode(&run.run)),
        (
            "windows",
            Json::Arr(run.windows.iter().map(encode_window).collect()),
        ),
    ])
}

/// Decodes a DRAM-transient run from an artifact payload. Returns
/// `None` if any field is missing or ill-typed, the window list is
/// empty, or the discriminator disagrees with the nested run's
/// application (the caller then re-simulates).
pub fn decode_dram(j: &Json) -> Option<DramRun> {
    let name = j.field("dram_app")?.as_str()?;
    let run = decode(j.field("run")?)?;
    if run.name != name {
        return None;
    }
    let windows = j
        .field("windows")?
        .as_arr()?
        .iter()
        .map(decode_window)
        .collect::<Option<Vec<TransientWindow>>>()?;
    if windows.is_empty() {
        return None;
    }
    Some(DramRun { run, windows })
}

fn encode_l4(s: &L4Stats) -> Json {
    Json::obj(vec![
        ("accesses", Json::U64(s.accesses)),
        ("hits", Json::U64(s.hits)),
        ("misses", Json::U64(s.misses)),
        ("fills", Json::U64(s.fills)),
        ("dirty_fills", Json::U64(s.dirty_fills)),
        ("writebacks", Json::U64(s.writebacks)),
        ("tag_probes", Json::U64(s.tag_probes)),
        ("tag_cache_hits", Json::U64(s.tag_cache_hits)),
        ("resize_writebacks", Json::U64(s.resize_writebacks)),
        ("resizes", Json::U64(s.resizes)),
    ])
}

fn decode_l4(j: &Json) -> Option<L4Stats> {
    let u = |k: &str| j.field(k)?.as_u64();
    Some(L4Stats {
        accesses: u("accesses")?,
        hits: u("hits")?,
        misses: u("misses")?,
        fills: u("fills")?,
        dirty_fills: u("dirty_fills")?,
        writebacks: u("writebacks")?,
        tag_probes: u("tag_probes")?,
        tag_cache_hits: u("tag_cache_hits")?,
        resize_writebacks: u("resize_writebacks")?,
        resizes: u("resizes")?,
    })
}

fn encode_energy(e: &EnergyTally) -> Json {
    Json::obj(vec![
        ("core", f64_bits(e.core.nj())),
        ("l1", f64_bits(e.l1.nj())),
        ("l2", f64_bits(e.l2.nj())),
        ("memory", f64_bits(e.memory.nj())),
    ])
}

fn decode_energy(j: &Json) -> Option<EnergyTally> {
    Some(EnergyTally {
        core: bits_energy(j.field("core")?)?,
        l1: bits_energy(j.field("l1")?)?,
        l2: bits_energy(j.field("l2")?)?,
        memory: bits_energy(j.field("memory")?)?,
    })
}

fn encode_counters(c: &Counters) -> Json {
    let mut pairs = vec![
        ("core", encode_core(&c.core)),
        ("l1_accesses", Json::U64(c.l1_accesses)),
        ("org", encode_org(&c.org)),
    ];
    if let Some(s) = &c.l4 {
        pairs.push(("l4", encode_l4(s)));
    }
    Json::obj(pairs)
}

fn decode_counters(j: &Json) -> Option<Counters> {
    Some(Counters {
        core: decode_core(j.field("core")?)?,
        l1_accesses: j.field("l1_accesses")?.as_u64()?,
        org: decode_org(j.field("org")?)?,
        l4: match j.field("l4") {
            Some(l4) => Some(decode_l4(l4)?),
            None => None,
        },
    })
}

fn encode_obs(w: &WindowObs) -> Json {
    Json::obj(vec![
        ("index", Json::U64(w.index)),
        ("start", Json::U64(w.start)),
        ("counters", encode_counters(&w.counters)),
    ])
}

fn decode_obs(j: &Json) -> Option<WindowObs> {
    Some(WindowObs {
        index: j.field("index")?.as_u64()?,
        start: j.field("start")?.as_u64()?,
        counters: decode_counters(j.field("counters")?)?,
    })
}

/// Encodes a sampled run as a JSON object (the artifact payload). The
/// `sampled_app` field discriminates the family from the `"app"`,
/// `"cmp_cores"`, and `"dram_app"` payloads; the estimated [`AppRun`]
/// nests under `"run"` using the plain codec and the per-window
/// [`Counters`] under `"windows"`, so a resumed sampling study
/// reproduces both the estimate and its confidence intervals
/// bit-identically.
pub fn encode_sampled(run: &SampledRun) -> Json {
    Json::obj(vec![
        ("sampled_app", Json::Str(run.run.name.to_string())),
        (
            "spec",
            Json::obj(vec![
                ("period", Json::U64(run.spec.period)),
                ("warmup", Json::U64(run.spec.warmup)),
                ("measure", Json::U64(run.spec.measure)),
            ]),
        ),
        ("intervals", Json::U64(run.intervals)),
        ("total_instructions", Json::U64(run.total_instructions)),
        ("detailed_instructions", Json::U64(run.detailed_instructions)),
        ("run", encode(&run.run)),
        (
            "windows",
            Json::Arr(run.windows.iter().map(encode_obs).collect()),
        ),
    ])
}

/// Decodes a sampled run from an artifact payload. Returns `None` if
/// any field is missing or ill-typed, the window list is empty, or the
/// discriminator disagrees with the nested run's application (the
/// caller then re-simulates).
pub fn decode_sampled(j: &Json) -> Option<SampledRun> {
    let name = j.field("sampled_app")?.as_str()?;
    let run = decode(j.field("run")?)?;
    if run.name != name {
        return None;
    }
    let spec = j.field("spec")?;
    let su = |k: &str| spec.field(k)?.as_u64();
    let windows = j
        .field("windows")?
        .as_arr()?
        .iter()
        .map(decode_obs)
        .collect::<Option<Vec<WindowObs>>>()?;
    if windows.is_empty() {
        return None;
    }
    Some(SampledRun {
        run,
        spec: SampleSpec {
            period: su("period")?,
            warmup: su("warmup")?,
            measure: su("measure")?,
        },
        intervals: j.field("intervals")?.as_u64()?,
        total_instructions: j.field("total_instructions")?.as_u64()?,
        detailed_instructions: j.field("detailed_instructions")?.as_u64()?,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exps::kind_of;
    use crate::runner::{run_app, Scale};
    use workloads::profiles::by_name;

    fn sample() -> AppRun {
        run_app(
            by_name("galgel").unwrap(),
            &kind_of("nf4"),
            Scale {
                warmup: 20_000,
                measure: 30_000,
            },
        )
    }

    #[test]
    fn encode_decode_is_bit_identical() {
        let run = sample();
        let back = decode(&encode(&run)).expect("decodes");
        // PartialEq on AppRun compares every field, including exact f64s.
        assert_eq!(run, back);
    }

    #[test]
    fn decode_survives_a_disk_roundtrip() {
        let run = sample();
        let line = encode(&run).render();
        let parsed = simsched::json::parse(&line).expect("parses");
        assert_eq!(decode(&parsed).expect("decodes"), run);
    }

    #[test]
    fn corrupt_payloads_decode_to_none() {
        let run = sample();
        let mut j = encode(&run);
        // Unknown app.
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::Str("not-a-benchmark".into());
        }
        assert!(decode(&j).is_none());
        // Missing field.
        let mut j = encode(&run);
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "swaps");
        }
        assert!(decode(&j).is_none());
        // Negative energy bit pattern must not panic EnergyNj::new.
        let mut j = encode(&run);
        *field_mut(&mut j, "l2_energy_bits") = Json::U64((-1.0f64).to_bits());
        assert!(decode(&j).is_none());
    }

    fn cmp_sample() -> crate::cmp::CmpRun {
        crate::cmp::run_cmp_opts(
            "nf4",
            2,
            &kind_of("nf4"),
            Scale {
                warmup: 10_000,
                measure: 16_000,
            },
            &simtel::TelemetrySink::disabled(),
            0,
            crate::runner::RunOptions::default(),
            None,
        )
    }

    #[test]
    fn cmp_encode_decode_is_bit_identical() {
        let run = cmp_sample();
        let line = encode_cmp(&run).render();
        let parsed = simsched::json::parse(&line).expect("parses");
        assert_eq!(decode_cmp(&parsed).expect("decodes"), run);
    }

    #[test]
    fn cmp_and_app_codecs_never_cross_decode() {
        let cmp_run = cmp_sample();
        let app_run = sample();
        assert!(decode(&encode_cmp(&cmp_run)).is_none(), "AppRun decoder rejects CMP");
        assert!(decode_cmp(&encode(&app_run)).is_none(), "CMP decoder rejects AppRun");
    }

    #[test]
    fn corrupt_cmp_payloads_decode_to_none() {
        let run = cmp_sample();
        // Core-count / vector-length mismatch.
        let mut j = encode_cmp(&run);
        *field_mut(&mut j, "cmp_cores") = Json::U64(4);
        assert!(decode_cmp(&j).is_none());
        // Unknown configuration key.
        let mut j = encode_cmp(&run);
        *field_mut(&mut j, "config") = Json::Str("not-a-config".into());
        assert!(decode_cmp(&j).is_none());
        // Missing field.
        let mut j = encode_cmp(&run);
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "bank_conflicts");
        }
        assert!(decode_cmp(&j).is_none());
    }

    fn dram_sample() -> DramRun {
        let scale = Scale {
            warmup: 10_000,
            measure: 16_000,
        };
        let (run, windows) = crate::runner::run_app_transient(
            by_name("galgel").unwrap(),
            &crate::exps::dram_kind(scale),
            scale,
            crate::exps::DRAM_WINDOWS,
            crate::runner::RunOptions::default(),
        );
        DramRun { run, windows }
    }

    #[test]
    fn dram_encode_decode_survives_a_disk_roundtrip() {
        let run = dram_sample();
        let line = encode_dram(&run).render();
        let parsed = simsched::json::parse(&line).expect("parses");
        assert_eq!(decode_dram(&parsed).expect("decodes"), run);
    }

    #[test]
    fn dram_codec_never_cross_decodes() {
        let dram_run = dram_sample();
        let j = encode_dram(&dram_run);
        assert!(decode(&j).is_none(), "AppRun decoder rejects DramRun");
        assert!(decode_cmp(&j).is_none(), "CMP decoder rejects DramRun");
        assert!(decode_dram(&encode(&sample())).is_none(), "DramRun decoder rejects AppRun");
        assert!(
            decode_dram(&encode_cmp(&cmp_sample())).is_none(),
            "DramRun decoder rejects CmpRun"
        );
    }

    fn sampled_sample() -> SampledRun {
        crate::sampling::run_app_sampled(
            by_name("galgel").unwrap(),
            &kind_of("nf4"),
            Scale {
                warmup: 10_000,
                measure: 20_000,
            },
            SampleSpec {
                period: 4_000,
                warmup: 100,
                measure: 400,
            },
            2,
            1,
            crate::runner::RunOptions::default(),
        )
    }

    #[test]
    fn sampled_encode_decode_survives_a_disk_roundtrip() {
        let run = sampled_sample();
        let line = encode_sampled(&run).render();
        let parsed = simsched::json::parse(&line).expect("parses");
        assert_eq!(decode_sampled(&parsed).expect("decodes"), run);
    }

    #[test]
    fn sampled_codec_never_cross_decodes() {
        let s = sampled_sample();
        let j = encode_sampled(&s);
        assert!(decode(&j).is_none(), "AppRun decoder rejects SampledRun");
        assert!(decode_cmp(&j).is_none(), "CMP decoder rejects SampledRun");
        assert!(decode_dram(&j).is_none(), "DramRun decoder rejects SampledRun");
        assert!(
            decode_sampled(&encode(&sample())).is_none(),
            "SampledRun decoder rejects AppRun"
        );
    }

    #[test]
    fn corrupt_sampled_payloads_decode_to_none() {
        let run = sampled_sample();
        // Discriminator disagreeing with the nested run.
        let mut j = encode_sampled(&run);
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::Str("wupwise".into());
        }
        assert!(decode_sampled(&j).is_none());
        // Empty window list.
        let mut j = encode_sampled(&run);
        *field_mut(&mut j, "windows") = Json::Arr(vec![]);
        assert!(decode_sampled(&j).is_none());
        // A window missing a field.
        let mut j = encode_sampled(&run);
        if let Json::Arr(ws) = field_mut(&mut j, "windows") {
            if let Json::Obj(org) = field_mut(field_mut(&mut ws[0], "counters"), "org") {
                org.retain(|(k, _)| k != "memory_accesses");
            }
        }
        assert!(decode_sampled(&j).is_none());
    }

    /// The value under `key` in a JSON object.
    fn field_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
        match j {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    /// A report in the flat shape artifacts had before d-group hits
    /// became counts: fractions as f64 bit patterns.
    fn pre_count_report(r: &OrgReport) -> Vec<(String, Json)> {
        let pairs = vec![
            ("l2_accesses", Json::U64(r.l2_accesses)),
            ("l2_misses", Json::U64(r.l2_misses)),
            (
                "group_frac_bits",
                Json::Arr(r.group_fracs().into_iter().map(f64_bits).collect()),
            ),
            ("miss_frac_bits", f64_bits(r.miss_frac())),
            ("dgroup_accesses", Json::U64(r.dgroup_accesses)),
            ("swaps", Json::U64(r.swaps)),
            ("memory_accesses", Json::U64(r.memory_accesses)),
            ("l2_energy_bits", f64_bits(r.l2_energy.nj())),
        ];
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Artifacts written before d-group hits became counts held the CMP
    /// report and every sampled window flat, with the hits (and the CMP
    /// miss fraction) as f64 bit patterns. Neither shape may decode as
    /// counts, and a sweep facing one re-simulates instead of resuming.
    #[test]
    fn pre_count_payloads_never_decode_as_counts() {
        let cmp = cmp_sample();
        let mut old = encode_cmp(&cmp);
        if let Json::Obj(pairs) = &mut old {
            pairs.retain(|(k, _)| k != "report");
            pairs.extend(pre_count_report(&cmp.result.report));
        }
        assert!(
            decode_cmp(&old).is_none(),
            "a pre-count CMP payload decoded"
        );

        let sampled = sampled_sample();
        let mut old_sampled = encode_sampled(&sampled);
        let old_windows = sampled.windows.iter().map(|w| {
            let c = &w.counters;
            let hit_bits = c
                .org
                .group_hits
                .iter()
                .map(|&h| f64_bits(h as f64))
                .collect();
            let mut pairs = vec![
                ("index".to_string(), Json::U64(w.index)),
                ("start".to_string(), Json::U64(w.start)),
                ("core".to_string(), encode_core(&c.core)),
                ("l1_accesses".to_string(), Json::U64(c.l1_accesses)),
                ("group_hit_bits".to_string(), Json::Arr(hit_bits)),
                ("energy_bits".to_string(), encode_energy(&c.price())),
            ];
            pairs.extend(pre_count_report(&c.org));
            Json::Obj(pairs)
        });
        *field_mut(&mut old_sampled, "windows") = Json::Arr(old_windows.collect());
        assert!(
            decode_sampled(&old_sampled).is_none(),
            "a pre-count sampled payload decoded"
        );

        let dir = std::env::temp_dir().join(format!("simart-pre-count-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = Scale {
            warmup: 10_000,
            measure: 16_000,
        };
        let digest = crate::cmp::cmp_run_digest(
            &::cmp::CmpConfig::micro2003(2),
            &crate::cmp::cmp_profiles(2),
            &kind_of("nf4"),
            scale,
        );
        let store = simsched::ArtifactStore::open(&dir).expect("open artifacts");
        store.append(&digest.hex(), old).expect("append");
        let sweep = crate::exps::Sweep::new(scale)
            .with_artifacts(&dir)
            .expect("reopen");
        assert_eq!(
            *sweep.run_cmp(2, "nf4"),
            cmp,
            "re-simulation reproduces the run"
        );
        assert_eq!(
            (sweep.simulated(), sweep.resumed()),
            (1, 0),
            "the stale payload resumed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_dram_payloads_decode_to_none() {
        let run = dram_sample();
        // Discriminator disagreeing with the nested run.
        let mut j = encode_dram(&run);
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::Str("wupwise".into());
        }
        assert!(decode_dram(&j).is_none());
        // Empty window list.
        let mut j = encode_dram(&run);
        *field_mut(&mut j, "windows") = Json::Arr(vec![]);
        assert!(decode_dram(&j).is_none());
        // A window missing one stats field.
        let mut j = encode_dram(&run);
        if let Json::Arr(ws) = field_mut(&mut j, "windows") {
            if let Json::Obj(l4) = field_mut(field_mut(&mut ws[0], "counters"), "l4") {
                l4.retain(|(k, _)| k != "resize_writebacks");
            }
        }
        assert!(decode_dram(&j).is_none());
    }
}
