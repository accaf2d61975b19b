//! The trace generator: turns a [`BenchProfile`] into a deterministic
//! micro-op stream.
//!
//! Address streams are a three-component mixture:
//!
//! * **recent-line reuse** — re-touching one of the last few cache lines,
//!   absorbed by the L1 (sets the L2 access rate);
//! * **hot region** — uniform traffic over a multi-megabyte reused
//!   footprint with a skewed inner core, the component whose residency in
//!   the fast d-groups the paper's policies fight over;
//! * **streaming region** — sequential bursts over a large cold footprint
//!   (compulsory L2 misses and d-group pollution).
//!
//! Instruction fetch walks a loop over the profile's code footprint, and
//! branch outcomes are drawn with per-site bias so the hybrid predictor
//! sees realistic (mostly predictable, occasionally not) streams.

use crate::profiles::BenchProfile;
use cpu::uop::{MicroOp, OpClass, TraceSource};
use simbase::rng::{Odds, SimRng};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::Addr;

/// Virtual-address bases for the three data regions and code.
const CODE_BASE: u64 = 0x0040_0000;
const HOT_BASE: u64 = 0x4000_0000;
const STREAM_BASE: u64 = 0x8000_0000;

/// Recently-touched lines remembered for L1-reuse draws.
const RECENT_LINES: usize = 8;

/// Probability of staying in a burst of new-line accesses.
const STAY_IN_BURST: f64 = 0.65;

/// Everything `next_op` needs from a profile, derived once in
/// [`TraceGenerator::new`]: sizes as integer divisions done up front and
/// probabilities as [`Odds`], which draw the same values and take the
/// same branches as the float tests they replace.
#[derive(Debug, Clone, Copy)]
struct Consts {
    /// Instructions in the code loop.
    loop_len: u64,
    /// One branch every `branch_every` ops (0: never).
    branch_every: u64,
    /// 128-B blocks in the hot region (the initialization sweep's length).
    hot_blocks: u64,
    /// Hot-region line-index bounds of the three skew tiers.
    tier_lines: [u64; 3],
    /// Hot blocks laid out with folded set bits, and the set residues
    /// they fold into (see [`TraceGenerator::hot_addr`]).
    fold_range: u64,
    fold_sets: u64,
    /// Streaming footprint in bytes and in 128-B blocks.
    stream_bytes: u64,
    stream_blocks: u64,
    /// Streaming burst lengths are drawn from `1..=burst_span`.
    burst_span: u64,
    fp: bool,
    stay_in_burst: Odds,
    enter_burst: Odds,
    hot: Odds,
    /// Cuts of the hot region's tier draw (one draw, two cuts).
    tier: [Odds; 2],
    taken: Odds,
    load: Odds,
    /// `load_frac + store_frac`, summed in `f64` before compiling.
    load_or_store: Odds,
    dep_load: Odds,
    no_dep: Odds,
    dep_stop: Odds,
    chase_stop: Odds,
    fp_op: Odds,
    fp_mul: Odds,
    int_mul: Odds,
}

impl Consts {
    fn new(p: &BenchProfile) -> Self {
        let hot_blocks = p.hot_footprint.bytes() / 128;
        let hot_lines = p.hot_footprint.bytes() / 32;
        let mean_burst = 1.0 / (1.0 - STAY_IN_BURST);
        Consts {
            loop_len: (p.code_footprint.bytes() / 4).max(64),
            branch_every: u64::from(p.branch_every),
            hot_blocks,
            tier_lines: [
                (hot_lines / 16).max(1),
                (hot_lines / 4).max(1),
                hot_lines / 2,
            ],
            fold_range: hot_blocks / 8,
            fold_sets: (hot_blocks / 40).max(16),
            stream_bytes: p.stream_footprint.bytes(),
            stream_blocks: p.stream_footprint.bytes() / 128,
            burst_span: 2 * u64::from(p.spatial_run),
            fp: p.fp,
            stay_in_burst: Odds::new(STAY_IN_BURST),
            enter_burst: Odds::new((1.0 - p.l1_reuse) / (mean_burst * p.l1_reuse.max(0.01))),
            hot: Odds::new(p.hot_frac),
            tier: [Odds::new(0.50), Odds::new(0.88)],
            taken: Odds::new(p.branch_bias),
            load: Odds::new(p.load_frac),
            load_or_store: Odds::new(p.load_frac + p.store_frac),
            dep_load: Odds::new(p.dep_load_frac),
            no_dep: Odds::new(0.15),
            dep_stop: Odds::new(0.45),
            chase_stop: Odds::new(0.5),
            fp_op: Odds::new(0.55),
            fp_mul: Odds::new(0.4),
            int_mul: Odds::new(0.05),
        }
    }
}

/// A deterministic micro-op generator for one benchmark.
///
/// # Examples
///
/// ```
/// use workloads::{profiles, TraceGenerator};
/// use cpu::uop::TraceSource;
///
/// let mcf = profiles::by_name("mcf").expect("in the roster");
/// let mut gen = TraceGenerator::new(mcf, 1);
/// let ops: Vec<_> = (0..1000).map(|_| gen.next_op()).collect();
/// // Same profile + seed => the same trace.
/// let mut again = TraceGenerator::new(mcf, 1);
/// assert!(ops.iter().all(|op| *op == again.next_op()));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchProfile,
    k: Consts,
    rng: SimRng,
    /// Instruction counter (the stream position).
    i: u64,
    /// `i % loop_len`: the PC's slot in the code loop.
    pc_slot: u64,
    /// Ops until the next branch site, counting the next op (`1`: the next
    /// op is a branch); 0 when the profile never branches.
    to_branch: u64,
    /// Ring of recently-touched line addresses.
    recent: [u64; RECENT_LINES],
    recent_n: usize,
    /// Current streaming position (bytes from STREAM_BASE).
    stream_pos: u64,
    /// Remaining lines in the current streaming burst.
    burst_left: u32,
    /// Whether the previous op was a load whose value the next op consumes.
    chain_next: bool,
    /// Remaining blocks of the initialization sweep over the hot region
    /// (programs touch their data structures once while building them;
    /// this also guarantees the hot region is warm before measurement).
    init_left: u64,
    /// Instructions since the last fresh hot-region load (for load-to-load
    /// chaining), saturating at 255.
    since_hot_load: u8,
    /// Whether the generator is inside a burst of new-line accesses.
    /// Memory traffic that escapes the L1 is bursty: programs alternate
    /// compute phases (register/L1 traffic) with data-structure traversal
    /// phases (several new lines close together). Burstiness is what lets
    /// dependent lower-level accesses sit within the 64-entry window.
    in_new_burst: bool,
}

impl TraceGenerator {
    /// Creates a generator for `profile` with the given seed.
    pub fn new(profile: BenchProfile, seed: u64) -> Self {
        let k = Consts::new(&profile);
        let mut g = TraceGenerator {
            profile,
            k,
            rng: SimRng::seeded(seed ^ fxhash(profile.name)),
            i: 0,
            pc_slot: 0,
            to_branch: 0,
            recent: [HOT_BASE; RECENT_LINES],
            recent_n: 0,
            stream_pos: 0,
            burst_left: 0,
            chain_next: false,
            init_left: k.hot_blocks,
            since_hot_load: u8::MAX,
            in_new_burst: false,
        };
        g.seek_counters();
        g
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    /// Re-derives the PC slot and the branch countdown from `i`.
    fn seek_counters(&mut self) {
        self.pc_slot = self.i % self.k.loop_len;
        self.to_branch = match self.k.branch_every {
            0 => 0,
            every => every - self.i % every,
        };
    }

    /// Serialises the generator's position in its stream (RNG state and
    /// all mixture-process state). The profile itself is construction
    /// input, not snapshot payload.
    pub fn save_state(&self, e: &mut Encoder) {
        for w in self.rng.state() {
            e.put_u64(w);
        }
        e.put_u64(self.i);
        e.put_u64_slice(&self.recent);
        e.put_u64(self.recent_n as u64);
        e.put_u64(self.stream_pos);
        e.put_u32(self.burst_left);
        e.put_bool(self.chain_next);
        e.put_u64(self.init_left);
        e.put_u8(self.since_hot_load);
        e.put_bool(self.in_new_burst);
    }

    /// Restores state written by [`Self::save_state`] into a generator
    /// built from the same profile and seed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] on a truncated or mismatched
    /// payload, or on a position outside this profile's regions: an
    /// initialization sweep longer than the hot region, or a streaming
    /// position at or past the end of the streaming footprint. The
    /// generator is left unchanged on error.
    pub fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        let rng_state = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let i = d.u64()?;
        let recent = d.u64_slice()?;
        if recent.len() != RECENT_LINES {
            return Err(SnapshotError::Malformed("recent-line ring size mismatch"));
        }
        let recent_n = d.u64()? as usize;
        let stream_pos = d.u64()?;
        // Nothing has streamed yet at 0, even in an empty footprint.
        if stream_pos != 0 && stream_pos >= self.k.stream_bytes {
            return Err(SnapshotError::Malformed(
                "streaming position past the footprint",
            ));
        }
        let burst_left = d.u32()?;
        let chain_next = d.bool()?;
        let init_left = d.u64()?;
        if init_left > self.k.hot_blocks {
            return Err(SnapshotError::Malformed(
                "initialization sweep longer than the hot region",
            ));
        }
        let since_hot_load = d.u8()?;
        let in_new_burst = d.bool()?;
        self.rng = SimRng::from_state(rng_state);
        self.i = i;
        self.recent.copy_from_slice(&recent);
        self.recent_n = recent_n;
        self.stream_pos = stream_pos;
        self.burst_left = burst_left;
        self.chain_next = chain_next;
        self.init_left = init_left;
        self.since_hot_load = since_hot_load;
        self.in_new_burst = in_new_burst;
        self.seek_counters();
        Ok(())
    }

    fn remember(&mut self, line: u64) {
        self.recent[self.recent_n % RECENT_LINES] = line;
        self.recent_n += 1;
    }

    /// Draws the next data line address (32-B aligned), returning the line
    /// and whether it is a *fresh hot-region* reference (a likely
    /// lower-level-cache access on the program's critical path).
    ///
    /// Inlined into `next_op`, like [`Self::dep`]. The uniform draws it
    /// makes through `SimRng::below` are not: the shipped release build
    /// calls `below` out of line from `next_op` (7 call sites), so the RNG
    /// state goes through memory at each of those calls. Forcing `below`
    /// inline as well measured no end-to-end difference.
    #[inline(always)]
    fn data_line(&mut self) -> (u64, bool) {
        let k = &self.k;
        // Initialization sweep: one touch per 128-B block of the hot
        // region, sequential, at full memory-op rate.
        if self.init_left > 0 {
            let idx = k.hot_blocks - self.init_left;
            self.init_left -= 1;
            let line = self.hot_addr(idx * 4);
            self.remember(line);
            return (line, false);
        }
        // Two-state burst process with long-run new-line fraction
        // (1 - l1_reuse): reuse runs (L1 hits) alternate with short bursts
        // of new lines (mean burst ~2.9 lines).
        if self.in_new_burst {
            if !self.rng.hit(k.stay_in_burst) {
                self.in_new_burst = false;
            }
        } else {
            if self.recent_n > 0 && !self.rng.hit(k.enter_burst) {
                // Stay in the reuse run: L1 hit.
                let n = self.recent_n.min(RECENT_LINES);
                return (self.recent[self.rng.index(n)], false);
            }
            self.in_new_burst = true;
        }
        let (line, fresh_hot) = if self.rng.hit(k.hot) {
            // Hot region: three-tier skew (Zipf-like), so reuse intervals
            // span from tens of thousands of instructions (the inner core,
            // which any organization keeps close) to millions (the outer
            // region, where placement policy decides who wins).
            let tier = self.rng.bits53();
            let bound = if k.tier[0].admits(tier) {
                k.tier_lines[0]
            } else if k.tier[1].admits(tier) {
                k.tier_lines[1]
            } else {
                k.tier_lines[2]
            };
            let idx = self.rng.below(bound);
            (self.hot_addr(idx), true)
        } else {
            // Streaming: a burst of 128-B-strided touches (one per L2
            // block, the worst case for the lower-level cache), jumping to
            // a random position when the burst ends.
            if self.burst_left == 0 {
                self.burst_left = 1 + self.rng.below(k.burst_span) as u32;
                self.stream_pos = self.rng.below(k.stream_blocks) * 128;
            }
            self.burst_left -= 1;
            let line = STREAM_BASE + self.stream_pos;
            // The position stays below the footprint, so one subtraction
            // is the modulo.
            self.stream_pos += 128;
            if self.stream_pos >= k.stream_bytes {
                self.stream_pos -= k.stream_bytes;
            }
            (line, false)
        };
        self.remember(line);
        (line, fresh_hot)
    }

    /// Maps a 32-B line index within the hot region to its address.
    ///
    /// The hottest eighth of the region is laid out with *folded* set
    /// bits, concentrating it into ~1/25 as many cache sets (about five
    /// live hot blocks per set). This models the paper's hot sets
    /// (Section 2.1: "the tendency of individual sets to be hot with many
    /// accesses to many ways over a short period") — the pressure that
    /// coupled placement cannot serve from the fastest d-group but
    /// distance-associative placement can.
    fn hot_addr(&self, idx: u64) -> u64 {
        const L2_SETS: u64 = 8192;
        let block = idx / 4;
        let within = idx % 4;
        if block < self.k.fold_range {
            // Fold into `fold_sets` set-residues, keeping blocks distinct.
            let sets = self.k.fold_sets;
            let aliased = (block % sets) + (block / sets) * L2_SETS;
            HOT_BASE + (aliased * 4 + within) * 32
        } else {
            HOT_BASE + idx * 32
        }
    }

    /// Dependency distance for a register source: short geometric within
    /// the window, or none.
    #[inline(always)]
    fn dep(&mut self) -> u8 {
        if self.rng.hit(self.k.no_dep) {
            0
        } else {
            1 + self.rng.geometric_odds(self.k.dep_stop, 20) as u8
        }
    }
}

fn fxhash(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
}

impl cpu::uop::TraceCursor for TraceGenerator {
    /// The stream is offset-addressable through its op counter: a
    /// generator restored from [`TraceGenerator::load_state`] reports the
    /// position the snapshot was taken at, so sampled and
    /// interval-parallel runs can fast-forward to absolute trace offsets
    /// without replaying (or even knowing) the prefix.
    fn position(&self) -> u64 {
        self.i
    }
}

impl TraceSource for TraceGenerator {
    fn next_op(&mut self) -> MicroOp {
        self.i += 1;
        self.pc_slot += 1;
        if self.pc_slot == self.k.loop_len {
            self.pc_slot = 0;
        }
        let pc = Addr::new(CODE_BASE + self.pc_slot * 4);
        self.since_hot_load = self.since_hot_load.saturating_add(1);

        let chained = std::mem::take(&mut self.chain_next);

        // Branch sites are periodic in the loop body.
        let branch = self.to_branch == 1;
        self.to_branch = if branch {
            self.k.branch_every
        } else {
            self.to_branch.saturating_sub(1)
        };
        if branch {
            let mut op = MicroOp::branch(pc, self.rng.hit(self.k.taken));
            op.dep1 = if chained { 1 } else { self.dep() };
            return op;
        }

        let roll = self.rng.bits53();
        if self.k.load.admits(roll) {
            let (line, fresh_hot) = self.data_line();
            let addr = Addr::new(line + self.rng.below(4) * 8);
            let mut op = MicroOp::load(pc, addr, 0);
            // Pointer chasing: this load's address came from a recent load.
            op.dep1 = if self.rng.hit(self.k.dep_load) {
                1 + self.rng.geometric_odds(self.k.chase_stop, 3) as u8
            } else {
                self.dep()
            };
            // Fresh hot-region loads walk linked/indexed structures: each
            // depends on the previous one (the address came from its
            // value), putting the lower-level cache's hit latency on the
            // program's critical path — the paper's operative assumption.
            if fresh_hot {
                if self.since_hot_load < 60 {
                    op.dep1 = self.since_hot_load;
                }
                self.since_hot_load = 0;
                self.chain_next = true;
            } else if self.rng.hit(self.k.dep_load) {
                self.chain_next = true;
            }
            op
        } else if self.k.load_or_store.admits(roll) {
            let (line, _) = self.data_line();
            let addr = Addr::new(line + self.rng.below(4) * 8);
            let mut op = MicroOp::store(pc, addr, 0);
            op.dep1 = if chained { 1 } else { self.dep() };
            op
        } else {
            let mut op = MicroOp::alu(pc);
            op.class = if self.k.fp && self.rng.hit(self.k.fp_op) {
                if self.rng.hit(self.k.fp_mul) {
                    OpClass::FpMul
                } else {
                    OpClass::FpAlu
                }
            } else if self.rng.hit(self.k.int_mul) {
                OpClass::IntMul
            } else {
                OpClass::IntAlu
            };
            op.dep1 = if chained { 1 } else { self.dep() };
            op.dep2 = self.dep();
            op
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{by_name, ROSTER};

    fn gen(name: &str) -> TraceGenerator {
        TraceGenerator::new(by_name(name).unwrap(), 1)
    }

    /// The experiments' trace seed (`experiments::runner::TRACE_SEED`),
    /// repeated here because `experiments` depends on this crate.
    const TRACE_SEED: u64 = 0x5eed;

    /// FNV-1a-128 of the first `n` ops of `g` followed by its
    /// `save_state` bytes.
    fn stream_digest(mut g: TraceGenerator, n: usize) -> String {
        let mut h = simbase::digest::Hasher128::new();
        for _ in 0..n {
            let op = g.next_op();
            h.write_u8(op.class as u8);
            h.write_u64(op.pc.raw());
            h.write_u64(op.mem_addr.map_or(u64::MAX, |a| a.raw()));
            h.write_bytes(&[op.dep1, op.dep2, op.taken as u8]);
        }
        let mut e = simbase::snapshot::Encoder::new();
        g.save_state(&mut e);
        h.write_bytes(&e.into_bytes());
        h.digest().hex()
    }

    /// Pins the whole stream: 200 000 ops of every roster app at the
    /// experiments' seed, plus the snapshot after them. Any change to a
    /// draw, a branch decision or the snapshot layout moves a digest, so
    /// a faster generator must leave these untouched.
    #[test]
    fn roster_streams_are_pinned() {
        const PINNED: [(&str, &str); 15] = [
            ("applu", "5c3008e06f06e103f24937cf0bca41ea"),
            ("apsi", "e5852ec15d18b0fad84bc91e499863c5"),
            ("art", "1be4a3e575d9cb10f4d9c79bea531440"),
            ("bzip2", "31c2937f7b5f8ff93571828da4f888eb"),
            ("equake", "6e42a757258977eade6915f1d31d5288"),
            ("galgel", "4f1bddc6e414b08476ec6a288b4a07a0"),
            ("gcc", "c6feeae1a558117b2728531e6b412ec1"),
            ("mcf", "566966170126969b151c60b975034d4b"),
            ("mgrid", "30ddbf5117dc5204e2045a2d7ef9d76b"),
            ("parser", "e22f2d28cd065bdc6a9aaebce4bc8f87"),
            ("swim", "5e71c41de1b07b26205bbe2346566d11"),
            ("twolf", "a59ba4afa13043786e055ddfb0fc9c04"),
            ("vpr", "25f1e0716c83c493d7d4fa507771eda9"),
            ("lucas", "c2d9adf294735e2e82717b2f515f23d3"),
            ("wupwise", "40c4c265b3deafc56807835c6e44beff"),
        ];
        for (p, (name, want)) in ROSTER.iter().zip(PINNED) {
            assert_eq!(p.name, name);
            let got = stream_digest(TraceGenerator::new(*p, TRACE_SEED), 200_000);
            assert_eq!(got, want, "{name}: stream drifted");
        }
    }

    /// `branch_every` edge cases keep their original meaning: 1 makes
    /// every op a branch; 0 never branches (`i.is_multiple_of(0)` is
    /// false for every `i >= 1`).
    #[test]
    fn branch_every_edge_cases_are_pinned() {
        for (every, want) in [
            (1, "34843571e21d1bad8868942ba66cd581"),
            (0, "ef0b6208ab873b89a5cda421380952ed"),
        ] {
            let mut p = by_name("mcf").unwrap();
            p.branch_every = every;
            let got = stream_digest(TraceGenerator::new(p, TRACE_SEED), 20_000);
            assert_eq!(got, want, "branch_every {every}: stream drifted");
        }
    }

    /// Runs a generator over `p` for `n` ops, snapshots it, and checks
    /// that a fresh generator restored from the snapshot continues the
    /// exact stream.
    fn assert_resumes_at(p: BenchProfile, n: u64) {
        let mut g = TraceGenerator::new(p, TRACE_SEED);
        for _ in 0..n {
            let _ = g.next_op();
        }
        let mut e = simbase::snapshot::Encoder::new();
        g.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = TraceGenerator::new(p, TRACE_SEED);
        restored
            .load_state(&mut simbase::snapshot::Decoder::new(&bytes))
            .expect("load");
        for j in 0..10_000 {
            assert_eq!(
                g.next_op(),
                restored.next_op(),
                "{}: op {j} after restoring at {n}",
                p.name
            );
        }
    }

    /// The PC slot and branch countdown are re-derived from the position
    /// on restore, including right before and at the code loop's wrap
    /// and right before a branch site.
    #[test]
    fn restores_continue_the_stream_at_counter_edges() {
        let p = by_name("gcc").unwrap();
        let k = Consts::new(&p);
        for n in [
            1,
            k.loop_len - 1,
            k.loop_len,
            3 * k.branch_every - 1,
            3 * k.branch_every,
        ] {
            assert_resumes_at(p, n);
        }
        // Every op a branch, and no op a branch (the countdown sits at 0
        // and must not underflow).
        for every in [1, 0] {
            let mut p = p;
            p.branch_every = every;
            for n in [1, 2, k.loop_len] {
                assert_resumes_at(p, n);
            }
            let mut g = TraceGenerator::new(p, TRACE_SEED);
            let branches = (0..10_000)
                .filter(|_| g.next_op().class == OpClass::Branch)
                .count();
            assert_eq!(branches, if every == 1 { 10_000 } else { 0 });
        }
    }

    /// A snapshot of a fresh `mcf` generator, with `stream_pos` and
    /// `init_left` replaced: the payload `save_state` writes, by hand.
    fn payload(stream_pos: u64, init_left: u64) -> (TraceGenerator, Vec<u8>) {
        let g = gen("mcf");
        let mut e = simbase::snapshot::Encoder::new();
        for w in g.rng.state() {
            e.put_u64(w);
        }
        e.put_u64(g.i);
        e.put_u64_slice(&g.recent);
        e.put_u64(g.recent_n as u64);
        e.put_u64(stream_pos);
        e.put_u32(g.burst_left);
        e.put_bool(g.chain_next);
        e.put_u64(init_left);
        e.put_u8(g.since_hot_load);
        e.put_bool(g.in_new_burst);
        (g, e.into_bytes())
    }

    fn load(g: &mut TraceGenerator, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut d = simbase::snapshot::Decoder::new(bytes);
        g.load_state(&mut d)?;
        d.finish()
    }

    #[test]
    fn load_state_rejects_an_init_sweep_longer_than_the_hot_region() {
        let (mut g, fine) = payload(0, gen("mcf").k.hot_blocks);
        load(&mut g, &fine).expect("a full sweep is a fresh generator");
        let (mut g, bad) = payload(0, g.k.hot_blocks + 5);
        let before = g.clone().next_op();
        assert!(matches!(
            load(&mut g, &bad),
            Err(SnapshotError::Malformed(_))
        ));
        assert_eq!(
            g.next_op(),
            before,
            "a rejected payload leaves the generator unchanged"
        );
    }

    #[test]
    fn load_state_rejects_a_streaming_position_past_the_footprint() {
        let bytes = gen("mcf").k.stream_bytes;
        let (mut g, fine) = payload(bytes - 128, 0);
        load(&mut g, &fine).expect("the last block is in range");
        for pos in [bytes, bytes + 128, u64::MAX] {
            let (mut g, bad) = payload(pos, 0);
            assert!(
                matches!(load(&mut g, &bad), Err(SnapshotError::Malformed(_))),
                "{pos:#x}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = gen("applu");
        let mut b = gen("applu");
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_apps_produce_different_streams() {
        let mut a = gen("applu");
        let mut b = gen("mcf");
        let same = (0..1000).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100, "streams should diverge, {same} identical");
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        let p = by_name("equake").unwrap();
        let mut g = TraceGenerator::new(p, 3);
        let n = 100_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for _ in 0..n {
            match g.next_op().class {
                OpClass::Load => loads += 1,
                OpClass::Store => stores += 1,
                OpClass::Branch => branches += 1,
                _ => {}
            }
        }
        let lf = loads as f64 / n as f64;
        let sf = stores as f64 / n as f64;
        let bf = branches as f64 / n as f64;
        // Branches displace some of the mix; allow tolerance.
        assert!((lf - p.load_frac).abs() < 0.05, "load frac {lf}");
        assert!((sf - p.store_frac).abs() < 0.04, "store frac {sf}");
        assert!((bf - 1.0 / p.branch_every as f64).abs() < 0.02, "branch frac {bf}");
    }

    #[test]
    fn memory_addresses_stay_in_their_regions() {
        for p in ROSTER {
            let mut g = TraceGenerator::new(p, 9);
            for _ in 0..20_000 {
                let op = g.next_op();
                if let Some(a) = op.mem_addr {
                    let a = a.raw();
                    // The folded hot-set mapping spreads the hottest
                    // eighth over up to 40 set-strides of 8192 blocks.
                    let hot_span = p.hot_footprint.bytes() + 41 * 8192 * 128;
                    let in_hot = (HOT_BASE..HOT_BASE + hot_span).contains(&a);
                    let in_stream = (STREAM_BASE
                        ..STREAM_BASE + p.stream_footprint.bytes() + 32)
                        .contains(&a);
                    assert!(in_hot || in_stream, "{}: stray address {a:#x}", p.name);
                }
            }
        }
    }

    #[test]
    fn pcs_walk_the_code_loop() {
        let p = by_name("gcc").unwrap();
        let mut g = TraceGenerator::new(p, 5);
        let span = p.code_footprint.bytes();
        for _ in 0..10_000 {
            let pc = g.next_op().pc.raw();
            assert!((CODE_BASE..CODE_BASE + span).contains(&pc));
        }
    }

    #[test]
    fn fp_apps_emit_fp_ops() {
        let mut g = gen("swim");
        let fp = (0..10_000)
            .filter(|_| {
                matches!(g.next_op().class, OpClass::FpAlu | OpClass::FpMul)
            })
            .count();
        assert!(fp > 1000, "fp app must emit fp ops, got {fp}");
        let mut g = gen("mcf");
        let fp = (0..10_000)
            .filter(|_| {
                matches!(g.next_op().class, OpClass::FpAlu | OpClass::FpMul)
            })
            .count();
        assert_eq!(fp, 0, "int app must not emit fp ops");
    }

    #[test]
    fn pointer_chasers_chain_dependencies() {
        // mcf's dep_load_frac (0.45) must yield more tightly-dependent
        // loads than swim's (0.06); fresh hot-region loads chain in both.
        let chain_rate = |name: &str| {
            let mut g = gen(name);
            let mut loads = 0;
            let mut chained = 0;
            for _ in 0..50_000 {
                let op = g.next_op();
                if op.class == OpClass::Load {
                    loads += 1;
                    if op.dep1 > 0 && op.dep1 <= 4 {
                        chained += 1;
                    }
                }
            }
            chained as f64 / loads as f64
        };
        let mcf = chain_rate("mcf");
        let swim = chain_rate("swim");
        assert!(mcf > swim + 0.05, "mcf {mcf} vs swim {swim}");
        assert!(mcf > 0.3, "pointer chaser must chain often: {mcf}");
    }

    #[test]
    fn state_roundtrip_resumes_the_exact_stream() {
        for p in ROSTER {
            let mut g = TraceGenerator::new(p, 17);
            for _ in 0..50_000 {
                let _ = g.next_op();
            }
            let mut e = simbase::snapshot::Encoder::new();
            g.save_state(&mut e);
            let bytes = e.into_bytes();

            let mut restored = TraceGenerator::new(p, 17);
            let mut d = simbase::snapshot::Decoder::new(&bytes);
            restored.load_state(&mut d).expect("load");
            d.finish().expect("no trailing bytes");
            for i in 0..20_000 {
                assert_eq!(
                    g.next_op(),
                    restored.next_op(),
                    "{}: op {i} diverged after restore",
                    p.name
                );
            }
        }
    }

    #[test]
    fn position_survives_state_roundtrip() {
        use cpu::uop::TraceCursor;
        let p = by_name("galgel").unwrap();
        let mut g = TraceGenerator::new(p, 17);
        assert_eq!(g.position(), 0);
        for _ in 0..12_345 {
            let _ = g.next_op();
        }
        assert_eq!(g.position(), 12_345);

        let mut e = simbase::snapshot::Encoder::new();
        g.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = TraceGenerator::new(p, 17);
        let mut d = simbase::snapshot::Decoder::new(&bytes);
        restored.load_state(&mut d).expect("load");
        // A restored stream knows the absolute offset its snapshot was
        // taken at — the contract offset-addressed (sampled) runs rely on.
        assert_eq!(restored.position(), 12_345);
        let _ = restored.next_op();
        assert_eq!(restored.position(), 12_346);
    }

    #[test]
    fn streaming_bursts_are_sequential() {
        // With hot_frac forced to 0 and l1_reuse 0, consecutive lines
        // should often differ by exactly 32 bytes.
        let mut p = by_name("swim").unwrap();
        p.hot_frac = 0.0;
        p.l1_reuse = 0.0;
        let mut g = TraceGenerator::new(p, 11);
        let mut prev = None;
        let mut seq = 0;
        let mut total = 0;
        let mut skip_init = 70_000; // skip the initialization sweep
        while skip_init > 0 {
            let op = g.next_op();
            if op.mem_addr.is_some() {
                skip_init -= 1;
            }
        }
        for _ in 0..50_000 {
            let op = g.next_op();
            if let Some(a) = op.mem_addr {
                let line = a.raw() & !31;
                if let Some(pl) = prev {
                    total += 1;
                    if line == pl + 128 || line == pl {
                        seq += 1;
                    }
                }
                prev = Some(line);
            }
        }
        assert!(
            seq as f64 / total as f64 > 0.7,
            "streaming must be mostly sequential: {seq}/{total}"
        );
    }
}
