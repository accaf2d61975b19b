//! The distance-group data arrays: frames, reverse pointers, free-frame
//! tracking, and distance-replacement victim selection.
//!
//! A d-group is thousands of frames (16 K in a 2-MB d-group with 128-B
//! blocks). With fully flexible distance associativity any block may
//! occupy any frame; with the Section 2.4.3 *pointer restriction* the
//! d-group is partitioned into regions of candidate frames (e.g. 256
//! frames per region) and each block maps to one region, shrinking the
//! forward/reverse pointers. Victim selection for distance replacement is
//! random or true LRU ([`crate::policy::DistanceVictimPolicy`]); LRU is
//! tracked with intrusive doubly-linked lists so demotions stay O(1).

use crate::policy::DistanceVictimPolicy;
use crate::tag::TagRef;
use simbase::rng::SimRng;
use simbase::snapshot::{Decoder, Encoder, SnapshotError};

const NIL: u32 = u32::MAX;

/// Intrusive LRU list over local frame indices of one region. A frame
/// taken off the list keeps its stale `prev`/`next` entries (they are
/// checkpoint bytes), so whether a frame is on the list is read from the
/// list itself ([`FrameLru::linked`]), not from its own entries.
///
/// The list's own debug checks catch only a push of the head and an
/// unlink of a frame whose entries say it is off the list. What keeps a
/// frame from being linked twice is its owner, [`DGroupArray`]: a frame
/// is on the list exactly while it is occupied, `install` (which pushes)
/// panics on an occupied frame, `remove` (which unlinks) on a free one,
/// and `touch` (which does both) checks in debug builds that the frame is
/// occupied.
#[derive(Debug, Clone)]
struct FrameLru {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32, // MRU
    tail: u32, // LRU
}

impl FrameLru {
    fn new(n: usize) -> Self {
        FrameLru {
            prev: vec![NIL; n],
            next: vec![NIL; n],
            head: NIL,
            tail: NIL,
        }
    }

    fn push_mru(&mut self, f: u32) {
        debug_assert!(f != self.head, "frame {f} already linked");
        self.prev[f as usize] = NIL;
        self.next[f as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = f;
        }
        self.head = f;
        if self.tail == NIL {
            self.tail = f;
        }
    }

    fn unlink(&mut self, f: u32) {
        debug_assert!(self.prev[f as usize] != NIL || self.head == f, "frame {f} not linked");
        let (p, n) = (self.prev[f as usize], self.next[f as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
    }

    fn touch(&mut self, f: u32) {
        self.unlink(f);
        self.push_mru(f);
    }

    fn lru(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// One flag per frame: whether it is on the list, i.e. reached from
    /// `head` through `next`. `None` when the walk leaves the region,
    /// revisits a frame, disagrees with a `prev` entry or does not end at
    /// `tail`, which a list built by `push_mru`/`unlink` never does.
    fn linked(&self) -> Option<Vec<bool>> {
        let mut linked = vec![false; self.prev.len()];
        let (mut f, mut last) = (self.head, NIL);
        while f != NIL {
            let i = f as usize;
            if linked.get(i) != Some(&false) || self.prev[i] != last {
                return None;
            }
            linked[i] = true;
            (last, f) = (f, self.next[i]);
        }
        (last == self.tail).then_some(linked)
    }
}

/// A region's free *local* frame indices without a full-length list:
/// frames `next_fresh..fpr` have never been handed out, and `released`
/// is a stack of frames given back, popped before a fresh one.
///
/// It stands for the list a `Vec` free list initialised to `fpr−1, …, 0`
/// would hold — `fpr−1` down to `next_fresh`, then the stack from bottom
/// to top, popped from the end — and that list is its checkpoint
/// encoding.
#[derive(Debug, Clone, Default)]
struct FreeList {
    next_fresh: u32,
    released: Vec<u32>,
}

impl FreeList {
    /// Free frames in a region of `fpr` frames.
    #[inline]
    fn len(&self, fpr: u32) -> usize {
        (fpr - self.next_fresh) as usize + self.released.len()
    }

    #[inline]
    fn pop(&mut self, fpr: u32) -> Option<u32> {
        if let Some(local) = self.released.pop() {
            return Some(local);
        }
        (self.next_fresh < fpr).then(|| {
            self.next_fresh += 1;
            self.next_fresh - 1
        })
    }

    #[inline]
    fn push(&mut self, local: u32) {
        self.released.push(local);
    }

    /// Writes the list as a length-prefixed `u32` slice.
    fn save_state(&self, e: &mut Encoder, fpr: u32) {
        e.put_len(self.len(fpr));
        for local in (self.next_fresh..fpr).rev().chain(self.released.iter().copied()) {
            e.put_u32(local);
        }
    }

    /// Reads a list written by [`FreeList::save_state`]: the longest
    /// prefix counting down by one from `fpr−1` is the fresh range, the
    /// rest the stack. Any list of at most `fpr` frames below `fpr`
    /// round-trips, popping in the same order and re-encoding to the same
    /// bytes; a stack whose bottom is `next_fresh−1` joins the fresh
    /// range, which hands out the same frame next.
    fn load_state(&mut self, d: &mut Decoder<'_>, fpr: u32) -> Result<(), SnapshotError> {
        let n = d.u64()?;
        if n > fpr as u64 {
            return Err(SnapshotError::Malformed("slice longer than its bound"));
        }
        self.next_fresh = fpr;
        self.released.clear();
        for _ in 0..n {
            let local = d.u32()?;
            if local >= fpr {
                return Err(SnapshotError::Malformed("free frame outside its region"));
            }
            if self.released.is_empty() && local + 1 == self.next_fresh {
                self.next_fresh = local;
            } else {
                self.released.push(local);
            }
        }
        Ok(())
    }
}

/// Per-region free list and recency state.
#[derive(Debug, Clone)]
struct Region {
    free: FreeList,
    lru: FrameLru,
    /// CLOCK reference bits and sweep hand (approximate LRU).
    referenced: Vec<bool>,
    hand: u32,
}

/// A free frame in the packed reverse-pointer arena.
const FREE: u32 = u32::MAX;

/// Tag sets a reverse pointer can name.
pub(crate) const MAX_SETS: usize = 1 << 24;

/// Packs a reverse pointer into a frame word: set in bits 8.., way in the
/// low byte. [`FREE`] (all ones) is unreachable because sets are below
/// [`MAX_SETS`] and ways below 255.
#[inline(always)]
fn pack_owner(owner: TagRef) -> u32 {
    debug_assert!((owner.set as usize) < MAX_SETS && owner.way < u8::MAX);
    (owner.set << 8) | owner.way as u32
}

#[inline(always)]
fn unpack_owner(word: u32) -> TagRef {
    TagRef {
        set: word >> 8,
        way: word as u8,
    }
}

/// Widens a frame word to its checkpoint word: [`FREE`] is `u64::MAX`.
#[inline(always)]
fn widen_owner(word: u32) -> u64 {
    if word == FREE {
        u64::MAX
    } else {
        word as u64
    }
}

/// Narrows a checkpoint word to its frame word (`u64::MAX` is [`FREE`]);
/// [`DGroupArray::load_state`] refuses a word that does not widen back.
#[inline(always)]
fn narrow_owner(word: u64) -> u32 {
    word as u32
}

/// One distance-group's data array, optionally partitioned into placement
/// regions (Section 2.4.3).
///
/// Layout (DESIGN.md §10): the reverse pointers live in one flat `Vec<u32>`
/// (packed set/way per frame, `u32::MAX` = free), each region's free
/// frames are a fresh-frame counter plus a stack of released frames, and
/// the global↔local frame index split uses shift+mask when the region
/// size is a power of two (it always is in the paper's configurations;
/// the div/mod fallback keeps arbitrary region counts working).
#[derive(Debug, Clone)]
pub struct DGroupArray {
    /// Packed reverse pointer per frame; [`FREE`] = free.
    frames: Vec<u32>,
    regions: Vec<Region>,
    /// Frames per region (`n_frames` when unrestricted).
    frames_per_region: u32,
    /// `log2(frames_per_region)` when it is a power of two.
    fpr_shift: Option<u32>,
    policy: DistanceVictimPolicy,
    rng: SimRng,
}

impl DGroupArray {
    /// Creates a fully flexible d-group of `n_frames` empty frames
    /// (a single region spanning the whole group).
    ///
    /// # Panics
    ///
    /// Panics if `n_frames` is zero.
    pub fn new(n_frames: usize, policy: DistanceVictimPolicy, rng: SimRng) -> Self {
        Self::with_regions(n_frames, 1, policy, rng)
    }

    /// Creates a d-group partitioned into `n_regions` equal placement
    /// regions; region `r` owns the contiguous frames
    /// `[r · n/R, (r+1) · n/R)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_frames` is zero or `n_regions` does not evenly divide
    /// it.
    pub fn with_regions(
        n_frames: usize,
        n_regions: usize,
        policy: DistanceVictimPolicy,
        rng: SimRng,
    ) -> Self {
        assert!(n_frames > 0, "d-group needs at least one frame");
        assert!(
            n_regions > 0 && n_frames.is_multiple_of(n_regions),
            "{n_regions} regions must evenly divide {n_frames} frames"
        );
        let fpr = n_frames / n_regions;
        // Recency state is only ever *read* under the policy that uses it
        // (the intrusive list under LRU, the reference bits under CLOCK),
        // so skip allocating and maintaining what the policy ignores —
        // under random replacement the chain ops touch no recency state
        // at all.
        let track_lru = policy == DistanceVictimPolicy::Lru;
        let track_clock = policy == DistanceVictimPolicy::ClockApprox;
        let regions = (0..n_regions)
            .map(|_| Region {
                free: FreeList::default(),
                lru: FrameLru::new(if track_lru { fpr } else { 0 }),
                referenced: vec![false; if track_clock { fpr } else { 0 }],
                hand: 0,
            })
            .collect();
        DGroupArray {
            frames: vec![FREE; n_frames],
            regions,
            frames_per_region: fpr as u32,
            fpr_shift: fpr.is_power_of_two().then(|| fpr.trailing_zeros()),
            policy,
            rng,
        }
    }

    /// Total frames.
    pub fn n_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of placement regions (1 when unrestricted).
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// The region a frame belongs to.
    #[inline]
    pub fn region_of_frame(&self, frame: u32) -> usize {
        match self.fpr_shift {
            Some(s) => (frame >> s) as usize,
            None => (frame / self.frames_per_region) as usize,
        }
    }

    #[inline]
    fn global(&self, region: usize, local: u32) -> u32 {
        match self.fpr_shift {
            Some(s) => ((region as u32) << s) | local,
            None => region as u32 * self.frames_per_region + local,
        }
    }

    #[inline]
    fn local(&self, frame: u32) -> u32 {
        match self.fpr_shift {
            Some(s) => frame & ((1 << s) - 1),
            None => frame % self.frames_per_region,
        }
    }

    /// Occupied frames (including frames in transient limbo during a
    /// demotion chain).
    pub fn occupied(&self) -> usize {
        let fpr = self.frames_per_region;
        self.frames.len() - self.regions.iter().map(|r| r.free.len(fpr)).sum::<usize>()
    }

    /// True if every frame of `region` is occupied.
    pub fn is_full(&self, region: usize) -> bool {
        self.regions[region].free.len(self.frames_per_region) == 0
    }

    /// Takes a free frame in `region` if one exists: the last one
    /// released, else the lowest never handed out.
    #[inline]
    pub fn take_free(&mut self, region: usize) -> Option<u32> {
        let local = self.regions[region].free.pop(self.frames_per_region)?;
        Some(self.global(region, local))
    }

    /// Installs a block's data in `frame` with reverse pointer `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is occupied.
    #[inline]
    pub fn install(&mut self, frame: u32, owner: TagRef) {
        let slot = &mut self.frames[frame as usize];
        assert!(*slot == FREE, "install into occupied frame {frame}");
        *slot = pack_owner(owner);
        if self.policy == DistanceVictimPolicy::Lru {
            let (r, l) = (self.region_of_frame(frame), self.local(frame));
            self.regions[r].lru.push_mru(l);
        }
    }

    /// Removes the block in `frame`, returning its reverse pointer; the
    /// frame does NOT go on the free list (the caller immediately reuses
    /// it, as in a demotion chain).
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    #[inline]
    pub fn remove(&mut self, frame: u32) -> TagRef {
        let word = self.frames[frame as usize];
        assert!(word != FREE, "remove from free frame");
        self.frames[frame as usize] = FREE;
        if self.policy == DistanceVictimPolicy::Lru {
            let (r, l) = (self.region_of_frame(frame), self.local(frame));
            self.regions[r].lru.unlink(l);
        }
        unpack_owner(word)
    }

    /// Removes the block in `frame` and returns the frame to its region's
    /// free list (used when a block is evicted from the cache entirely).
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    #[inline]
    pub fn release(&mut self, frame: u32) -> TagRef {
        let owner = self.remove(frame);
        let (r, l) = (self.region_of_frame(frame), self.local(frame));
        self.regions[r].free.push(l);
        owner
    }

    /// Records a hit on `frame` for recency tracking.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the frame is free.
    #[inline]
    pub fn touch(&mut self, frame: u32) {
        debug_assert!(self.frames[frame as usize] != FREE, "touch of free frame {frame}");
        let (r, l) = (self.region_of_frame(frame), self.local(frame));
        match self.policy {
            DistanceVictimPolicy::Lru => self.regions[r].lru.touch(l),
            DistanceVictimPolicy::ClockApprox => {
                self.regions[r].referenced[l as usize] = true;
            }
            DistanceVictimPolicy::Random => {}
        }
    }

    /// Reverse pointer of `frame`, if occupied.
    #[inline]
    pub fn owner(&self, frame: u32) -> Option<TagRef> {
        let word = self.frames[frame as usize];
        (word != FREE).then(|| unpack_owner(word))
    }

    /// Updates the reverse pointer of an occupied `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    #[inline]
    pub fn set_owner(&mut self, frame: u32, owner: TagRef) {
        let slot = &mut self.frames[frame as usize];
        assert!(*slot != FREE, "set_owner on free frame {frame}");
        *slot = pack_owner(owner);
    }

    /// Serializes the full d-group state: reverse pointers, per-region
    /// free lists, whichever recency state the policy maintains, and the
    /// victim RNG stream (its draw sequence is architectural — it decides
    /// which blocks demote). Each reverse pointer is widened to a `u64`
    /// word (`u64::MAX` = free); the LRU list is followed by one on-list
    /// flag per frame, derived from the list.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_widened_u64_slice(&self.frames, widen_owner);
        for reg in &self.regions {
            reg.free.save_state(e, self.frames_per_region);
            e.put_u32_slice(&reg.lru.prev);
            e.put_u32_slice(&reg.lru.next);
            e.put_u32(reg.lru.head);
            e.put_u32(reg.lru.tail);
            let linked = reg.lru.linked().expect("a recency list push_mru/unlink built");
            e.put_len(linked.len());
            for b in linked {
                e.put_bool(b);
            }
            e.put_len(reg.referenced.len());
            for &b in &reg.referenced {
                e.put_bool(b);
            }
            e.put_u32(reg.hand);
        }
        for w in self.rng.state() {
            e.put_u64(w);
        }
    }

    /// Restores state written by [`DGroupArray::save_state`] into a
    /// d-group of identical geometry and policy. A reverse pointer that
    /// is neither `u64::MAX` nor below `u32::MAX`, a free frame outside
    /// its region, an LRU list that does not walk from head to tail, or
    /// on-list flags that disagree with it, is [`SnapshotError::Malformed`].
    pub fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        d.narrowed_u64_slice_into(&mut self.frames, narrow_owner, widen_owner)?;
        let fpr = self.frames_per_region;
        for reg in self.regions.iter_mut() {
            reg.free.load_state(d, fpr)?;
            d.u32_slice_into(&mut reg.lru.prev)?;
            d.u32_slice_into(&mut reg.lru.next)?;
            reg.lru.head = d.u32()?;
            reg.lru.tail = d.u32()?;
            let linked = reg.lru.linked();
            let linked = linked.ok_or(SnapshotError::Malformed("broken d-group recency list"))?;
            if d.len()? != linked.len() {
                return Err(SnapshotError::Malformed("d-group recency geometry mismatch"));
            }
            for b in linked {
                if d.bool()? != b {
                    return Err(SnapshotError::Malformed("d-group recency flags off the list"));
                }
            }
            if d.len()? != reg.referenced.len() {
                return Err(SnapshotError::Malformed("d-group recency geometry mismatch"));
            }
            for b in reg.referenced.iter_mut() {
                *b = d.bool()?;
            }
            reg.hand = d.u32()?;
        }
        let s = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        self.rng = SimRng::from_state(s);
        Ok(())
    }

    /// Chooses a distance-replacement victim frame within `region`.
    ///
    /// # Panics
    ///
    /// Panics if the region has free frames (callers must consume free
    /// frames first — victimizing while space exists is a policy bug).
    pub fn choose_victim(&mut self, region: usize) -> u32 {
        assert!(
            self.is_full(region),
            "choose_victim with {} free frames in region {region}",
            self.regions[region].free.len(self.frames_per_region)
        );
        let local = match self.policy {
            DistanceVictimPolicy::Random => self.rng.below(self.frames_per_region as u64) as u32,
            DistanceVictimPolicy::Lru => self.regions[region].lru.lru().expect("non-empty region"),
            DistanceVictimPolicy::ClockApprox => {
                // Second-chance sweep: clear reference bits until an
                // unreferenced frame is found. Terminates within two laps.
                let fpr = self.frames_per_region;
                let reg = &mut self.regions[region];
                loop {
                    let l = reg.hand;
                    reg.hand = if reg.hand + 1 == fpr { 0 } else { reg.hand + 1 };
                    if reg.referenced[l as usize] {
                        reg.referenced[l as usize] = false;
                    } else {
                        break l;
                    }
                }
            }
        };
        self.global(region, local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{checker, range_u32, range_u8, select, vec_of};

    fn tr(set: u32, way: u8) -> TagRef {
        TagRef { set, way }
    }

    fn group(n: usize, policy: DistanceVictimPolicy) -> DGroupArray {
        DGroupArray::new(n, policy, SimRng::seeded(7))
    }

    #[test]
    fn free_frames_are_consumed_before_victims() {
        let mut g = group(4, DistanceVictimPolicy::Random);
        assert_eq!(g.occupied(), 0);
        for i in 0..4 {
            let f = g.take_free(0).expect("free frame");
            g.install(f, tr(i, 0));
        }
        assert!(g.is_full(0));
        assert_eq!(g.take_free(0), None);
        assert_eq!(g.occupied(), 4);
    }

    #[test]
    fn install_remove_roundtrip() {
        let mut g = group(4, DistanceVictimPolicy::Lru);
        let f = g.take_free(0).unwrap();
        g.install(f, tr(9, 3));
        assert_eq!(g.owner(f), Some(tr(9, 3)));
        assert_eq!(g.remove(f), tr(9, 3));
        assert_eq!(g.owner(f), None);
        // Frame not on free list after remove: it stays in limbo.
        assert_eq!(g.occupied(), 1);
    }

    #[test]
    fn release_returns_frame_to_free_list() {
        let mut g = group(2, DistanceVictimPolicy::Random);
        let f0 = g.take_free(0).unwrap();
        let f1 = g.take_free(0).unwrap();
        g.install(f0, tr(0, 0));
        g.install(f1, tr(1, 0));
        g.release(f0);
        assert_eq!(g.occupied(), 1);
        assert_eq!(g.take_free(0), Some(f0));
    }

    #[test]
    fn lru_victim_is_least_recently_installed_or_touched() {
        let mut g = group(3, DistanceVictimPolicy::Lru);
        let f: Vec<u32> = (0..3).map(|_| g.take_free(0).unwrap()).collect();
        for (i, &fi) in f.iter().enumerate() {
            g.install(fi, tr(i as u32, 0));
        }
        assert_eq!(g.choose_victim(0), f[0]);
        g.touch(f[0]); // now f[1] is LRU
        assert_eq!(g.choose_victim(0), f[1]);
    }

    #[test]
    fn random_victims_are_deterministic_and_in_range() {
        let mut a = group(16, DistanceVictimPolicy::Random);
        let mut b = group(16, DistanceVictimPolicy::Random);
        for i in 0..16 {
            let fa = a.take_free(0).unwrap();
            a.install(fa, tr(i, 0));
            let fb = b.take_free(0).unwrap();
            b.install(fb, tr(i, 0));
        }
        for _ in 0..32 {
            let va = a.choose_victim(0);
            assert_eq!(va, b.choose_victim(0));
            assert!((va as usize) < 16);
        }
    }

    #[test]
    fn touch_is_noop_under_random_policy() {
        let mut g = group(2, DistanceVictimPolicy::Random);
        let f = g.take_free(0).unwrap();
        g.install(f, tr(0, 0));
        g.touch(f);
        let f2 = g.take_free(0).unwrap();
        g.install(f2, tr(1, 0));
        assert!(g.is_full(0));
    }

    #[test]
    fn set_owner_updates_reverse_pointer() {
        let mut g = group(2, DistanceVictimPolicy::Random);
        let f = g.take_free(0).unwrap();
        g.install(f, tr(0, 0));
        g.set_owner(f, tr(5, 1));
        assert_eq!(g.owner(f), Some(tr(5, 1)));
    }

    #[test]
    #[should_panic(expected = "occupied frame")]
    fn double_install_panics() {
        let mut g = group(2, DistanceVictimPolicy::Random);
        let f = g.take_free(0).unwrap();
        g.install(f, tr(0, 0));
        g.install(f, tr(1, 0));
    }

    /// Touching a free frame would unlink a frame that is off the LRU
    /// list and link it again; the occupancy check stops it first.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "touch of free frame")]
    fn touching_a_free_frame_panics() {
        let mut g = group(2, DistanceVictimPolicy::Lru);
        let f = g.take_free(0).unwrap();
        g.install(f, tr(0, 0));
        g.release(f);
        g.touch(f);
    }

    #[test]
    #[should_panic(expected = "free frames")]
    fn victim_with_free_space_panics() {
        let mut g = group(2, DistanceVictimPolicy::Random);
        let f = g.take_free(0).unwrap();
        g.install(f, tr(0, 0));
        let _ = g.choose_victim(0);
    }

    #[test]
    #[should_panic(expected = "free frame")]
    fn remove_free_frame_panics() {
        let mut g = group(2, DistanceVictimPolicy::Random);
        g.remove(0);
    }

    // ---- Region (pointer-restriction) behavior --------------------------

    #[test]
    fn regions_partition_the_frames() {
        let g = DGroupArray::with_regions(16, 4, DistanceVictimPolicy::Random, SimRng::seeded(1));
        assert_eq!(g.n_regions(), 4);
        assert_eq!(g.region_of_frame(0), 0);
        assert_eq!(g.region_of_frame(3), 0);
        assert_eq!(g.region_of_frame(4), 1);
        assert_eq!(g.region_of_frame(15), 3);
    }

    #[test]
    fn take_free_respects_regions() {
        let mut g =
            DGroupArray::with_regions(8, 2, DistanceVictimPolicy::Random, SimRng::seeded(2));
        // Exhaust region 0 (frames 0..4); region 1 still has room.
        for i in 0..4 {
            let f = g.take_free(0).unwrap();
            assert_eq!(g.region_of_frame(f), 0);
            g.install(f, tr(i, 0));
        }
        assert!(g.is_full(0));
        assert!(!g.is_full(1));
        assert_eq!(g.take_free(0), None);
        let f = g.take_free(1).unwrap();
        assert_eq!(g.region_of_frame(f), 1);
    }

    #[test]
    fn victims_come_from_the_requested_region() {
        let mut g =
            DGroupArray::with_regions(8, 2, DistanceVictimPolicy::Random, SimRng::seeded(3));
        for i in 0..4 {
            let f = g.take_free(1).unwrap();
            g.install(f, tr(i, 0));
        }
        for _ in 0..16 {
            let v = g.choose_victim(1);
            assert_eq!(g.region_of_frame(v), 1);
        }
    }

    #[test]
    fn region_lru_is_tracked_locally() {
        let mut g = DGroupArray::with_regions(8, 2, DistanceVictimPolicy::Lru, SimRng::seeded(4));
        let f: Vec<u32> = (0..4).map(|_| g.take_free(1).unwrap()).collect();
        for (i, &fi) in f.iter().enumerate() {
            g.install(fi, tr(i as u32, 0));
        }
        assert_eq!(g.choose_victim(1), f[0]);
        g.touch(f[0]);
        assert_eq!(g.choose_victim(1), f[1]);
    }

    #[test]
    fn clock_spares_recently_referenced_frames() {
        let mut g = DGroupArray::new(4, DistanceVictimPolicy::ClockApprox, SimRng::seeded(6));
        let f: Vec<u32> = (0..4).map(|_| g.take_free(0).unwrap()).collect();
        for (i, &fi) in f.iter().enumerate() {
            g.install(fi, tr(i as u32, 0));
        }
        // Reference frames 1 and 2: the sweep must pick 0 (unreferenced).
        g.touch(f[1]);
        g.touch(f[2]);
        assert_eq!(g.choose_victim(0), f[0]);
        // Hand has passed 0; 1's bit gets cleared next, then 3 is chosen
        // (never referenced).
        assert_eq!(g.choose_victim(0), f[3]);
        // Third sweep: every bit was cleared along the way and the hand
        // wrapped to frame 0.
        assert_eq!(g.choose_victim(0), f[0]);
    }

    #[test]
    fn clock_terminates_when_everything_is_referenced() {
        let mut g = DGroupArray::new(8, DistanceVictimPolicy::ClockApprox, SimRng::seeded(6));
        for i in 0..8 {
            let f = g.take_free(0).unwrap();
            g.install(f, tr(i, 0));
            g.touch(f);
        }
        // All bits set: the sweep clears a full lap and returns the hand's
        // first frame on the second lap.
        let v = g.choose_victim(0);
        assert!((v as usize) < 8);
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn regions_must_divide_frames() {
        let _ = DGroupArray::with_regions(10, 3, DistanceVictimPolicy::Random, SimRng::seeded(5));
    }

    #[test]
    fn state_roundtrip_preserves_frames_recency_and_rng() {
        use simbase::snapshot::{Decoder, Encoder};
        for policy in [
            DistanceVictimPolicy::Random,
            DistanceVictimPolicy::Lru,
            DistanceVictimPolicy::ClockApprox,
        ] {
            let mut g = DGroupArray::with_regions(8, 2, policy, SimRng::seeded(11));
            for i in 0..3 {
                let f = g.take_free(0).unwrap();
                g.install(f, tr(i, 0));
                g.touch(f);
            }
            let f = g.take_free(1).unwrap();
            g.install(f, tr(9, 1));
            // Consume an RNG draw so the stream position is non-trivial.
            let f4 = g.take_free(0).unwrap();
            g.install(f4, tr(3, 0));
            let _ = g.choose_victim(0);

            let mut e = Encoder::new();
            g.save_state(&mut e);
            let bytes = e.into_bytes();
            let mut fresh = DGroupArray::with_regions(8, 2, policy, SimRng::seeded(99));
            let mut d = Decoder::new(&bytes);
            fresh.load_state(&mut d).unwrap();
            d.finish().unwrap();

            assert_eq!(fresh.occupied(), g.occupied(), "{policy:?}");
            for frame in 0..8 {
                assert_eq!(fresh.owner(frame), g.owner(frame), "{policy:?} frame {frame}");
            }
            // Victim choice (recency or RNG stream) must continue in step.
            assert_eq!(fresh.choose_victim(0), g.choose_victim(0), "{policy:?}");
        }
    }

    /// An empty 4-frame, 2-region random-policy d-group.
    fn two_regions() -> DGroupArray {
        DGroupArray::with_regions(4, 2, DistanceVictimPolicy::Random, SimRng::seeded(1))
    }

    /// The payload of [`two_regions`] with `patch` applied: the frame
    /// slice starts at byte 8, and region 0's free list (2 entries)
    /// right after it.
    fn payload(patch: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let mut e = Encoder::new();
        two_regions().save_state(&mut e);
        let mut bytes = e.into_bytes();
        patch(&mut bytes);
        bytes
    }

    fn load(bytes: &[u8]) -> Result<DGroupArray, SnapshotError> {
        let mut g = two_regions();
        let mut d = Decoder::new(bytes);
        g.load_state(&mut d)?;
        d.finish()?;
        Ok(g)
    }

    /// Reverse pointers are saved as `u64` words with `u64::MAX` for a
    /// free frame, and an unfilled d-group saves each region's free list
    /// as the full countdown `fpr−1, …, 0`.
    #[test]
    fn reverse_pointers_and_free_lists_keep_their_wide_encoding() {
        let mut g = two_regions();
        let f = g.take_free(1).unwrap();
        g.install(f, tr((1 << 24) - 1, 254));
        let mut e = Encoder::new();
        g.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut want = Encoder::new();
        want.put_u64_slice(&[u64::MAX, u64::MAX, 0xFFFF_FFFE, u64::MAX]);
        want.put_u32_slice(&[1, 0]);
        let want = want.into_bytes();
        assert_eq!(&bytes[..want.len()], &want[..]);
        let mut again = Encoder::new();
        load(&bytes).unwrap().save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    /// A reverse pointer that is neither `u64::MAX` nor below `u32::MAX`
    /// is malformed; so is a free-list entry outside its region.
    #[test]
    fn words_a_frame_or_free_list_cannot_hold_are_malformed() {
        for word in [1u64 << 32, u64::MAX - 1, 0xFFFF_FFFF] {
            let bytes = payload(|b| b[8..16].copy_from_slice(&word.to_le_bytes()));
            let got = load(&bytes).map(|_| ());
            assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{word:#x}: {got:?}");
        }
        let free_at = 8 + 4 * 8 + 8;
        for entry in [2u32, u32::MAX] {
            let bytes = payload(|b| b[free_at..free_at + 4].copy_from_slice(&entry.to_le_bytes()));
            let got = load(&bytes).map(|_| ());
            assert!(matches!(got, Err(SnapshotError::Malformed(_))), "entry {entry}: {got:?}");
        }
        let bytes = payload(|b| b[free_at - 8..free_at].copy_from_slice(&3u64.to_le_bytes()));
        assert!(matches!(load(&bytes).map(|_| ()), Err(SnapshotError::Malformed(_))));
    }

    /// The LRU list's on-list flags come from the list: a frame taken off
    /// it keeps stale `prev`/`next` entries yet saves as off. A restore
    /// refuses flags that disagree with the list, and a list that does
    /// not walk from head to tail.
    #[test]
    fn lru_flags_are_derived_from_the_list_and_checked_on_load() {
        let lru_group =
            || DGroupArray::with_regions(4, 1, DistanceVictimPolicy::Lru, SimRng::seeded(3));
        let mut g = lru_group();
        let f: Vec<u32> = (0..3).map(|_| g.take_free(0).unwrap()).collect();
        for (i, &fi) in f.iter().enumerate() {
            g.install(fi, tr(i as u32, 0));
        }
        g.release(f[1]);
        assert_eq!(g.regions[0].lru.linked(), Some(vec![true, false, true, false]));
        let mut e = Encoder::new();
        g.save_state(&mut e);
        let bytes = e.into_bytes();
        let load = |bytes: &[u8]| {
            let mut fresh = lru_group();
            let mut d = Decoder::new(bytes);
            fresh.load_state(&mut d).and_then(|()| d.finish()).map(|()| fresh)
        };
        let mut again = Encoder::new();
        load(&bytes).unwrap().save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        // The payload ends with the four flags, the CLOCK bits' length
        // (no bits under LRU), the hand and the four RNG words; the LRU
        // head and tail sit before the flags' length.
        let flags = bytes.len() - 44 - 4;
        for (at, byte) in [(flags + 1, 1), (flags + 3, 1), (flags, 0), (flags - 16, 1)] {
            let mut bad = bytes.clone();
            bad[at] = byte;
            let got = load(&bad).map(|_| ());
            assert!(matches!(got, Err(SnapshotError::Malformed(_))), "byte {at}: {got:?}");
        }
    }

    /// The list a free list encodes to: what `put_u32_slice` writes.
    fn list_bytes(list: &[u32]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32_slice(list);
        e.into_bytes()
    }

    fn free_bytes(free: &FreeList, fpr: u32) -> Vec<u8> {
        let mut e = Encoder::new();
        free.save_state(&mut e, fpr);
        e.into_bytes()
    }

    /// Pops `free` and the reference list (popped from its end) dry,
    /// requiring the same frames in the same order.
    fn drain_in_step(free: &mut FreeList, mut reference: Vec<u32>, fpr: u32) {
        while let Some(want) = reference.pop() {
            assert_eq!(free.pop(fpr), Some(want));
            assert_eq!(free.len(fpr), reference.len());
        }
        assert_eq!(free.pop(fpr), None);
    }

    /// A stack whose bottom frame is `next_fresh−1` decodes into the
    /// fresh range, and still pops and re-encodes as it was stored.
    #[test]
    fn a_stack_bottom_next_to_the_fresh_range_round_trips() {
        let list = [7, 6, 5, 4, 2];
        let bytes = list_bytes(&list);
        let mut free = FreeList::default();
        free.load_state(&mut Decoder::new(&bytes), 8).unwrap();
        assert_eq!((free.next_fresh, &free.released[..]), (4, &[2][..]));
        assert_eq!(free_bytes(&free, 8), bytes);
        drain_in_step(&mut free, list.to_vec(), 8);
    }

    /// Random take/release sequences over a two-region d-group against a
    /// plain `Vec<u32>` free list per region (initialised `fpr−1, …, 0`
    /// and popped from its end): the same frames come out in the same
    /// order, `occupied` and `is_full` agree, and each region's list
    /// encodes to the reference's bytes and decodes back to a list that
    /// does too. Arbitrary stored lists of at most `fpr` frames decode,
    /// re-encode to the same bytes and pop in the stored order.
    #[test]
    fn free_lists_match_a_vec_reference() {
        let ops = vec_of((range_u8(0, 3), range_u32(0, 1 << 16)), 0, 200);
        let stored = vec_of(range_u32(0, 1 << 16), 0, 40);
        let gen = (select(vec![1u32, 2, 3, 8, 16]), ops, range_u32(0, 17), stored);
        checker("free_lists_match_a_vec_reference").check(&gen, |(fpr, ops, fresh, stored)| {
            let fpr = *fpr;
            let mut g = DGroupArray::with_regions(
                2 * fpr as usize,
                2,
                DistanceVictimPolicy::Random,
                SimRng::seeded(3),
            );
            let mut reference: Vec<Vec<u32>> = vec![(0..fpr).rev().collect(); 2];
            let mut held: Vec<u32> = Vec::new();
            for (n, &(op, x)) in ops.iter().enumerate() {
                let region = (x & 1) as usize;
                if op < 2 || held.is_empty() {
                    let want = reference[region].pop().map(|l| region as u32 * fpr + l);
                    let got = g.take_free(region);
                    assert_eq!(got, want, "take {n} from region {region}");
                    if let Some(f) = got {
                        g.install(f, tr(f, 0));
                        held.push(f);
                    }
                } else {
                    let f = held.swap_remove(x as usize % held.len());
                    g.release(f);
                    reference[g.region_of_frame(f)].push(f % fpr);
                }
                let free: usize = reference.iter().map(Vec::len).sum();
                assert_eq!(g.occupied(), 2 * fpr as usize - free);
                for (r, list) in reference.iter().enumerate() {
                    assert_eq!(g.is_full(r), list.is_empty());
                }
            }
            for (reg, want) in g.regions.iter().zip(&reference) {
                let bytes = free_bytes(&reg.free, fpr);
                assert_eq!(bytes, list_bytes(want));
                let mut back = FreeList::default();
                back.load_state(&mut Decoder::new(&bytes), fpr).unwrap();
                assert_eq!(free_bytes(&back, fpr), bytes);
                drain_in_step(&mut back, want.clone(), fpr);
            }

            // A stored list: a countdown from fpr−1 of `fresh` frames,
            // then arbitrary frames, cut to at most fpr entries.
            let mut list: Vec<u32> = (0..fpr).rev().take(*fresh as usize).collect();
            list.extend(stored.iter().map(|&v| v % fpr));
            list.truncate(fpr as usize);
            let bytes = list_bytes(&list);
            let mut free = FreeList::default();
            free.load_state(&mut Decoder::new(&bytes), fpr).unwrap();
            assert_eq!(free_bytes(&free, fpr), bytes);
            drain_in_step(&mut free, list, fpr);
        });
    }

    #[test]
    fn load_rejects_wrong_frame_count() {
        use simbase::snapshot::{Decoder, Encoder};
        let g = group(4, DistanceVictimPolicy::Random);
        let mut e = Encoder::new();
        g.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut other = group(8, DistanceVictimPolicy::Random);
        let mut d = Decoder::new(&bytes);
        assert!(other.load_state(&mut d).is_err());
    }
}
