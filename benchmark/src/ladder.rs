//! The layer ladder: one thread times calls into each layer's public
//! functions from outside, over replay streams that concatenate all 15
//! roster applications (so both high-load and low-load footprints appear).
//!
//! Every application gets the runner's own phase structure — prefill, a
//! functional warm-up, the drain barrier, a detailed slice — built up one
//! layer at a time:
//!
//! 1. the trace generator alone (`workloads.next_op_ns`);
//! 2. the core and L1s over a fixed-latency stub lower cache
//!    (`cpu.*`, `memsys.l1.data_access_ns`);
//! 3. each organization replaying the exact lower-level stream the L1s
//!    emitted, recorded through a forwarding wrapper (`org.<k>.*`);
//! 4. the whole step, generator → core → L1 → organization
//!    (`org.<k>.rung_ns_per_op`);
//! 5. around it: checkpoint encode/decode/publish/hit, per-run fixed
//!    cost, energy pricing, telemetry, CMP stepping, L4 resizing and
//!    sampled runs.
//!
//! `--seed` seeds every generator and CMP stream here; the `repro` runs
//! themselves always use the simulator's compiled-in trace seed.

use crate::model;
use crate::report::{put, Metrics};
use crate::workload::{Env, INTERVALS};
use cmp::{CmpConfig, CmpSystem};
use cpu::uop::{MicroOp, TraceSource};
use cpu::{CoreParams, OooCore};
use energy::core::CoreEnergyModel;
use energy::EnergyTally;
use experiments::cmp::{cmp_profiles, CMP_CORES, CMP_KEYS};
use experiments::exps::kind_of;
use experiments::{CheckpointStore, L2Kind, L4Config, RunOptions, SampleSpec, Scale};
use memsys::l1::CoreMemSystem;
use memsys::lower::{LowerCache, LowerOutcome};
use memsys::org::Organization;
use simbase::digest::Hasher128;
use simbase::snapshot::{Decoder, Encoder};
use simbase::{AccessKind, BlockAddr, Cycle};
use simtel::telemetry::{DEFAULT_RING_CAP, DEFAULT_SNAP_CYCLES};
use simtel::{Telemetry, TelemetrySink};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::{BenchProfile, TraceGenerator, ROSTER};

/// The organizations the ladder builds.
pub const ORG_KEYS: [&str; 9] =
    ["base", "nf4", "nf8", "sa4", "dn-perf", "dn-energy", "dn-memo", "cnuca", "nf4-l4"];

/// Roster indices whose checkpoints and sampled runs the ladder times
/// (a high-load, a mid-roster and a low-load application).
const SPOT_APPS: [usize; 3] = [0, 7, 14];

/// Lengths and seed of one ladder pass.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Functional warm-up ops per application (the quick scale's).
    pub warm: u64,
    /// Detailed ops per application.
    pub measure: u64,
    /// Seed of every generator and CMP stream.
    pub seed: u64,
    /// Length divisor (1 for a full pass, 10 for `--smoke`).
    pub divisor: u64,
}

impl Spec {
    /// A pass at 1/`divisor` of the full length.
    pub fn new(seed: u64, divisor: u64) -> Spec {
        Spec { warm: Scale::quick().warmup / divisor, measure: 50_000 / divisor, seed, divisor }
    }

    /// The scale the ladder's sampled runs use.
    fn sample_scale(&self) -> Scale {
        let q = Scale::quick();
        Scale { warmup: q.warmup / self.divisor, measure: q.measure / self.divisor }
    }
}

/// The organization a ladder key names: `exps::kind_of`, except `nf4-l4`,
/// which is `nf4` over the L4 DRAM-cache tier.
pub fn kind(key: &str) -> L2Kind {
    match key {
        "nf4-l4" => L2Kind::L4(Box::new(kind_of("nf4")), L4Config::tdram()),
        k => kind_of(k),
    }
}

/// Nanoseconds per item.
fn per(d: Duration, n: u64) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// A lower cache that hits every access after a fixed latency: the core
/// and L1s measured with no organization behind them.
#[derive(Debug, Default)]
struct Stub {
    accesses: u64,
}

impl LowerCache for Stub {
    fn access(&mut self, _block: BlockAddr, _kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.accesses += 1;
        LowerOutcome { complete_at: now + 20, hit: true }
    }

    fn accesses(&self) -> u64 {
        self.accesses
    }

    fn misses(&self) -> u64 {
        0
    }

    fn block_bytes(&self) -> u64 {
        128
    }

    fn warm_access(&mut self, _block: BlockAddr, _kind: AccessKind) {
        self.accesses += 1;
    }
}

/// Forwards to an organization and logs the stream it is given: warm
/// accesses during warm-up, timed accesses (with their cycle) after.
struct Recorder {
    org: Box<dyn Organization>,
    warm_log: Vec<(BlockAddr, AccessKind)>,
    log: Vec<(BlockAddr, AccessKind, Cycle)>,
}

impl LowerCache for Recorder {
    fn access(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        self.log.push((block, kind, now));
        self.org.access(block, kind, now)
    }

    fn accesses(&self) -> u64 {
        self.org.accesses()
    }

    fn misses(&self) -> u64 {
        self.org.misses()
    }

    fn block_bytes(&self) -> u64 {
        self.org.block_bytes()
    }

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
        self.warm_log.push((block, kind));
        self.org.warm_access(block, kind);
    }
}

/// A trace source replaying recorded ops.
fn replay(ops: &[MicroOp]) -> impl FnMut() -> MicroOp + '_ {
    let mut it = ops.iter();
    move || *it.next().expect("replay stream exhausted")
}

/// The runner's drain barrier: clear timing state, zero statistics, and
/// rebuild the core at cycle zero over the preserved architectural state.
fn barrier<L: LowerCache>(core: OooCore<L>, lower: impl FnOnce(&mut L)) -> OooCore<L> {
    let (mut mem, mut pred) = core.into_parts();
    mem.drain_timing();
    mem.reset_stats();
    lower(mem.lower_mut());
    pred.reset_counters();
    let mut core = OooCore::new(CoreParams::micro2003(), mem);
    core.set_predictor(pred);
    core
}

fn drain_org(org: &mut Box<dyn Organization>) {
    org.drain_timing();
    org.reset_stats();
}

fn snapshot_err(what: &str) -> impl Fn(simbase::snapshot::SnapshotError) -> String + '_ {
    move |e| format!("ladder: restoring {what}: {e:?}")
}

/// A freshly built, prefilled organization.
fn fresh(kind: &L2Kind) -> Box<dyn Organization> {
    let mut org = kind.build();
    org.prefill();
    org
}

/// A system restored from a checkpoint payload, and the decode time.
type Restored = (OooCore<Box<dyn Organization>>, TraceGenerator, Duration);

/// Restores a warm-up checkpoint payload into a fresh system parked at
/// the barrier, as the runner does.
fn restore(
    kind: &L2Kind,
    profile: BenchProfile,
    seed: u64,
    payload: &[u8],
) -> Result<Restored, String> {
    let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(fresh(kind)));
    let mut gen = TraceGenerator::new(profile, seed);
    let t = Instant::now();
    let mut d = Decoder::new(payload);
    gen.load_state(&mut d).map_err(snapshot_err("generator"))?;
    core.predictor_mut().load_state(&mut d).map_err(snapshot_err("predictor"))?;
    core.mem_mut().load_l1_state(&mut d).map_err(snapshot_err("L1s"))?;
    core.mem_mut().lower_mut().load_state(&mut d).map_err(snapshot_err("organization"))?;
    d.finish().map_err(snapshot_err("payload end"))?;
    let decode = t.elapsed();
    Ok((barrier(core, drain_org), gen, decode))
}

/// Layers 1 and 2: generator, core over the stub, and the L1 data port.
fn core_layers(spec: &Spec, m: &mut Metrics) {
    let (mut gen_t, mut warm_t, mut exec_t, mut l1_t) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut l1_calls = 0u64;
    for profile in ROSTER {
        let n = spec.warm + spec.measure;
        let mut gen = TraceGenerator::new(profile, spec.seed);
        let mut ops = Vec::with_capacity(n as usize);
        let t = Instant::now();
        for _ in 0..n {
            ops.push(gen.next_op());
        }
        gen_t += t.elapsed();
        let (warm_ops, measured) = ops.split_at(spec.warm as usize);

        let mut core =
            OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(Stub::default()));
        let mut src = replay(warm_ops);
        let t = Instant::now();
        core.warm_run(&mut src, spec.warm);
        warm_t += t.elapsed();
        let mut core = barrier(core, |_| {});
        let mut src = replay(measured);
        let t = Instant::now();
        core.run(&mut src, spec.measure);
        exec_t += t.elapsed();

        let mut mem = CoreMemSystem::micro2003(Stub::default());
        for op in warm_ops {
            if let Some(a) = op.mem_addr {
                mem.warm_data_access(a, op.access_kind());
            }
        }
        let data: Vec<_> =
            measured.iter().filter_map(|op| op.mem_addr.map(|a| (a, op.access_kind()))).collect();
        let t = Instant::now();
        for (i, &(a, k)) in data.iter().enumerate() {
            black_box(mem.data_access(a, k, Cycle::new(4 * i as u64)));
        }
        l1_t += t.elapsed();
        l1_calls += data.len() as u64;
    }
    let apps = ROSTER.len() as u64;
    put(m, "workloads.next_op_ns", per(gen_t, apps * (spec.warm + spec.measure)), "ns");
    put(m, "cpu.warm_run_ns_per_op", per(warm_t, apps * spec.warm), "ns");
    put(m, "cpu.execute_ns_per_op", per(exec_t, apps * spec.measure), "ns");
    put(m, "memsys.l1.data_access_ns", per(l1_t, l1_calls), "ns");
}

/// Running totals of one organization's ladder timings.
#[derive(Debug, Default)]
struct OrgAcc {
    warm_access: Duration,
    warm_calls: u64,
    access: Duration,
    calls: u64,
    rung: Duration,
    encode: Duration,
    decode: Duration,
    snapshot_bytes: u64,
    payload_encode: Duration,
    payload_decode: Duration,
    fixed: Duration,
    price: Duration,
    /// Per spot application, ms: file-system stalls make these heavy-tailed,
    /// so the ladder reports their median.
    publish_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    resize: Duration,
    resizes: u64,
    recording: Duration,
}

/// Layers 3–5 for one organization and one application.
fn org_app(
    key: &str,
    kind: &L2Kind,
    profile: BenchProfile,
    spec: &Spec,
    acc: &mut OrgAcc,
    chk: Option<&Path>,
) -> Result<(), String> {
    // Record pass: the run's own warm-up and detailed slice, logging the
    // lower-level stream the L1s emit on the way through.
    let recorder = Recorder { org: fresh(kind), warm_log: Vec::new(), log: Vec::new() };
    let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(recorder));
    let mut gen = TraceGenerator::new(profile, spec.seed);
    core.warm_run(&mut gen, spec.warm);

    let t = Instant::now();
    let mut e = Encoder::new();
    core.mem().lower().org.save_state(&mut e);
    let org_state = e.into_bytes();
    acc.encode += t.elapsed();
    acc.snapshot_bytes += org_state.len() as u64;
    // The warm-up checkpoint payload, in the runner's layout.
    let t = Instant::now();
    let mut e = Encoder::new();
    gen.save_state(&mut e);
    core.predictor().save_state(&mut e);
    core.mem().save_l1_state(&mut e);
    core.mem().lower().org.save_state(&mut e);
    let payload = e.into_bytes();
    acc.payload_encode += t.elapsed();

    let mut core = barrier(core, |r| drain_org(&mut r.org));
    core.run(&mut gen, spec.measure);
    let rec = core.into_mem().into_lower();
    acc.warm_calls += rec.warm_log.len() as u64;
    acc.calls += rec.log.len() as u64;

    // The organization alone: the warm stream into a fresh prefilled
    // instance, then the timed stream into one restored at the barrier.
    let mut org = fresh(kind);
    let t = Instant::now();
    for &(b, k) in &rec.warm_log {
        org.warm_access(b, k);
    }
    acc.warm_access += t.elapsed();

    let mut org = fresh(kind);
    let t = Instant::now();
    let mut d = Decoder::new(&org_state);
    org.load_state(&mut d).map_err(snapshot_err("organization"))?;
    d.finish().map_err(snapshot_err("organization end"))?;
    acc.decode += t.elapsed();
    drain_org(&mut org);
    let t = Instant::now();
    for &(b, k, now) in &rec.log {
        black_box(org.access(b, k, now));
    }
    acc.access += t.elapsed();

    if key == "nf4-l4" {
        let now = rec.log.last().map_or(Cycle::ZERO, |r| r.2) + 1;
        let dram = org.main_memory_mut().ok_or("nf4-l4 has no DRAM channel")?;
        let t = Instant::now();
        let done = dram.resize_l4(4, now);
        black_box(dram.resize_l4(12, done));
        acc.resize += t.elapsed();
        acc.resizes += 2;
    }

    // The whole rung, restored from the checkpoint payload.
    let (mut core, mut gen, decode) = restore(kind, profile, spec.seed, &payload)?;
    acc.payload_decode += decode;
    let t = Instant::now();
    core.run(&mut gen, spec.measure);
    let rung = t.elapsed();
    acc.rung += rung;

    let t = Instant::now();
    let report = core.mem().lower().report();
    let model = CoreEnergyModel::micro2003();
    let tally = EnergyTally {
        core: model.core_energy(&core.finish()),
        l1: model.l1_energy(core.mem().l1_accesses()),
        l2: report.l2_energy,
        memory: model.memory_energy(report.memory_accesses),
    };
    black_box(tally.total());
    acc.price += t.elapsed();

    if key == "nf4" {
        // The same rung with a recording telemetry sink attached at the
        // barrier, as a telemetry-enabled sweep attaches one.
        let (mut core, mut gen, _) = restore(kind, profile, spec.seed, &payload)?;
        let tel = Telemetry::with_params(DEFAULT_RING_CAP, DEFAULT_SNAP_CYCLES);
        let sink = tel.run_sink();
        core.mem_mut().lower_mut().set_telemetry(&sink, tel.snap_cycles());
        core.mem_mut().set_telemetry(sink.clone());
        core.set_telemetry(sink.clone(), tel.snap_cycles());
        let t = Instant::now();
        core.run(&mut gen, spec.measure);
        acc.recording += t.elapsed().saturating_sub(rung);
        black_box(sink.drain());
    }

    let t = Instant::now();
    black_box(experiments::runner::run_app(profile, kind, Scale { warmup: 0, measure: 1 }));
    acc.fixed += t.elapsed();

    if let Some(dir) = chk {
        let mut h = Hasher128::new();
        h.write_str("nurapid-benchmark-ladder");
        h.write_str(key);
        h.write_str(profile.name);
        h.write_u64(spec.seed);
        let digest = h.digest();
        let store = CheckpointStore::open(dir).map_err(|e| format!("ladder store: {e}"))?;
        let owned = payload.clone();
        let t = Instant::now();
        let (_, hit) = store.get_or_build(digest, move || owned);
        acc.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let reread = CheckpointStore::open(dir).map_err(|e| format!("ladder store: {e}"))?;
        let t = Instant::now();
        let (blob, reread_hit) = reread.get_or_build(digest, Vec::new);
        acc.hit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if hit || !reread_hit || *blob != payload {
            return Err(format!("ladder checkpoint for {key}/{} did not round-trip", profile.name));
        }
        let _ = std::fs::remove_file(dir.join(format!("{}.simchk", digest.hex())));
    }
    Ok(())
}

fn org_layers(key: &str, spec: &Spec, env: &Env, m: &mut Metrics) -> Result<(), String> {
    let kind = kind(key);
    let mut acc = OrgAcc::default();
    let dir = env.fresh_dir("ladder-chk")?;
    for (i, &profile) in ROSTER.iter().enumerate() {
        let chk = SPOT_APPS.contains(&i).then_some(dir.as_path());
        org_app(key, &kind, profile, spec, &mut acc, chk)?;
    }
    crate::workload::remove_dir(&dir);
    let apps = ROSTER.len() as u64;
    let name = |s: &str| format!("org.{key}.{s}");
    put(m, name("warm_access_ns"), per(acc.warm_access, acc.warm_calls), "ns");
    put(m, name("access_ns"), per(acc.access, acc.calls), "ns");
    put(m, name("rung_ns_per_op"), per(acc.rung, apps * spec.measure), "ns");
    put(m, name("encode_us"), per(acc.encode, apps) / 1e3, "us");
    put(m, name("decode_us"), per(acc.decode, apps) / 1e3, "us");
    put(m, name("snapshot_kb"), acc.snapshot_bytes as f64 / apps as f64 / 1024.0, "KiB");
    // Inputs of the reconciliation model (printed, not declared).
    put(m, name("warm_l2_per_op"), acc.warm_calls as f64 / (apps * spec.warm) as f64, "1/op");
    put(m, name("l2_per_op"), acc.calls as f64 / (apps * spec.measure) as f64, "1/op");
    put(m, name("payload_encode_us"), per(acc.payload_encode, apps) / 1e3, "us");
    put(m, name("payload_decode_us"), per(acc.payload_decode, apps) / 1e3, "us");
    put(m, name("fixed_ms"), per(acc.fixed, apps) / 1e6, "ms");
    put(m, name("price_us"), per(acc.price, apps) / 1e3, "us");
    put(m, name("publish_ms"), crate::stats::median(&acc.publish_ms), "ms");
    put(m, name("hit_ms"), crate::stats::median(&acc.hit_ms), "ms");
    if acc.resizes > 0 {
        put(m, "memsys.dramcache.resize_us", per(acc.resize, acc.resizes) / 1e3, "us");
    }
    if key == "nf4" {
        put(m, "simtel.recording_ns_per_op", per(acc.recording, apps * spec.measure), "ns");
    }
    Ok(())
}

/// CMP stepping: every core count × organization of the `cmp` table.
fn cmp_layers(spec: &Spec, m: &mut Metrics) {
    for &cores in CMP_CORES {
        let c = u64::from(cores);
        let mut run_sum = 0.0;
        for &key in CMP_KEYS {
            let mut sys = CmpSystem::new(
                CmpConfig::micro2003(cores),
                kind_of(key).build(),
                &cmp_profiles(cores),
                spec.seed,
            );
            let (warm, measure) = ((spec.warm / c).max(1), (spec.measure / c).max(1));
            let t = Instant::now();
            sys.warm_run(warm);
            let warm_ns = per(t.elapsed(), warm * c);
            sys.drain_barrier(&TelemetrySink::disabled(), 0);
            let t = Instant::now();
            sys.run(measure);
            let run_ns = per(t.elapsed(), measure * c);
            black_box(sys.finish());
            put(m, format!("cmp.c{c}.{key}.warm_ns_per_op"), warm_ns, "ns");
            put(m, format!("cmp.c{c}.{key}.run_ns_per_op"), run_ns, "ns");
            run_sum += run_ns;
        }
        put(m, format!("cmp.c{c}.run_ns_per_op"), run_sum / CMP_KEYS.len() as f64, "ns");
    }
}

/// Sampled runs of `nf4` against a populated store, per executed op.
fn sampling_layer(spec: &Spec, env: &Env, m: &mut Metrics) -> Result<(), String> {
    let scale = spec.sample_scale();
    let sample = SampleSpec::for_scale(scale);
    let kind = kind_of("nf4");
    let dir = env.fresh_dir("ladder-sample")?;
    let open = || CheckpointStore::open(&dir).map_err(|e| format!("ladder sample store: {e}"));
    let mut elapsed = Duration::ZERO;
    for i in SPOT_APPS {
        let run = |store: &CheckpointStore| {
            let opts = RunOptions { checkpoints: Some(store), ..RunOptions::default() };
            experiments::run_app_sampled(ROSTER[i], &kind, scale, sample, INTERVALS, 1, opts)
        };
        black_box(run(&open()?));
        let store = open()?;
        let t = Instant::now();
        black_box(run(&store));
        elapsed += t.elapsed();
    }
    crate::workload::remove_dir(&dir);
    let (detailed, functional) = model::sampled_interval_ops(scale, sample, INTERVALS);
    let ops = (detailed + functional) * SPOT_APPS.len() as u64;
    put(m, "experiments.sampling.ns_per_inst", per(elapsed, ops), "ns");
    Ok(())
}

/// The cost of a record call on a disabled telemetry sink.
fn simtel_disabled(spec: &Spec, m: &mut Metrics) {
    let sink = TelemetrySink::disabled();
    let n = 3_000_000 / spec.divisor;
    let t = Instant::now();
    for i in 0..n {
        let s = black_box(&sink);
        s.count("bench.count", i);
        s.observe("bench.observe", i);
        s.span("bench", "span", i, 1);
    }
    put(m, "simtel.disabled_ns_per_op", per(t.elapsed(), 3 * n), "ns");
}

/// Mean of `org.<k>.<field>` over every ladder organization.
fn org_mean(m: &Metrics, field: &str) -> f64 {
    let sum: f64 =
        ORG_KEYS.iter().filter_map(|k| m.get(&format!("org.{k}.{field}"))).map(|x| x.value).sum();
    sum / ORG_KEYS.len() as f64
}

/// One full ladder pass.
pub fn pass(spec: &Spec, env: &Env) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    core_layers(spec, &mut m);
    for key in ORG_KEYS {
        org_layers(key, spec, env, &mut m)?;
    }
    cmp_layers(spec, &mut m);
    sampling_layer(spec, env, &mut m)?;
    simtel_disabled(spec, &mut m);
    let fixed = org_mean(&m, "fixed_ms");
    put(&mut m, "experiments.runner.fixed_ms_per_run", fixed, "ms");
    let price = org_mean(&m, "price_us");
    put(&mut m, "energy.price_us_per_run", price, "us");
    let publish = org_mean(&m, "publish_ms");
    put(&mut m, "experiments.checkpoint.publish_ms", publish, "ms");
    let hit = org_mean(&m, "hit_ms");
    put(&mut m, "experiments.checkpoint.hit_ms", hit, "ms");
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ladder_key_builds() {
        for key in ORG_KEYS {
            let org = fresh(&kind(key));
            assert_eq!(org.block_bytes(), 128, "{key}");
        }
        assert!(kind("nf4-l4").build().main_memory().is_some_and(|m| m.l4().is_some()));
    }

    fn run_over<L: LowerCache>(lower: L, spec: &Spec) -> cpu::CoreResult {
        let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(lower));
        let mut gen = TraceGenerator::new(ROSTER[3], spec.seed);
        core.warm_run(&mut gen, spec.warm);
        core.run(&mut gen, spec.measure);
        core.finish()
    }

    #[test]
    fn the_recorder_is_transparent() {
        // The same ops through a recorder and through the bare organization
        // retire identically.
        let spec = Spec::new(7, 100);
        let recorder = Recorder { org: fresh(&kind("nf4")), warm_log: Vec::new(), log: Vec::new() };
        assert_eq!(run_over(recorder, &spec), run_over(fresh(&kind("nf4")), &spec));
    }

    #[test]
    fn a_short_pass_measures_every_declared_layer() {
        let work = crate::work_root().join(format!("ladder-test-{}", std::process::id()));
        let env = Env::new(std::path::PathBuf::from("repro"), work).unwrap();
        let m = pass(&Spec::new(1, 100), &env).unwrap();
        // These come from each workload's own traced reps instead.
        let per_workload = [
            "simsched.",
            "ladder.",
            "trace_overhead_frac",
            "count.",
            "experiments.repro.render_ms",
        ];
        for name in crate::config::per_layer_names() {
            if per_workload.iter().any(|p| name.starts_with(p)) {
                continue;
            }
            let v = m.get(name).unwrap_or_else(|| panic!("{name} not measured")).value;
            assert!(v.is_finite(), "{name} = {v}");
        }
    }
}
