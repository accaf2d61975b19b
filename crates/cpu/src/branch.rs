//! Two-level hybrid branch predictor (Table 1: "2-level, hybrid, 8K
//! entries", 9-cycle misprediction penalty).
//!
//! The hybrid combines a gshare component (global history XOR PC into a
//! pattern history table of 2-bit counters) with a bimodal component
//! (PC-indexed 2-bit counters) through a PC-indexed chooser table, the
//! classic McFarling arrangement SimpleScalar's "hybrid" predictor
//! implements.

use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::Addr;

/// A table of 2-bit saturating counters.
#[derive(Debug, Clone)]
struct Counters {
    table: Vec<u8>,
    mask: u64,
}

impl Counters {
    fn new(entries: usize, init: u8) -> Self {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        Counters {
            table: vec![init; entries],
            mask: entries as u64 - 1,
        }
    }

    fn predict(&self, index: u64) -> bool {
        self.table[(index & self.mask) as usize] >= 2
    }

    fn update(&mut self, index: u64, taken: bool) {
        let c = &mut self.table[(index & self.mask) as usize];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// McFarling-style hybrid predictor with 8 K-entry component tables.
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    gshare: Counters,
    bimodal: Counters,
    chooser: Counters,
    history: u64,
    history_bits: u32,
    predictions: u64,
    mispredictions: u64,
}

impl HybridPredictor {
    /// The paper's 8 K-entry configuration.
    pub fn micro2003() -> Self {
        Self::new(8192)
    }

    /// Creates a hybrid predictor with `entries` counters per component.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        HybridPredictor {
            gshare: Counters::new(entries, 1),
            bimodal: Counters::new(entries, 1),
            chooser: Counters::new(entries, 2), // slight initial gshare bias
            history: 0,
            history_bits: entries.trailing_zeros(),
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn pc_index(pc: Addr) -> u64 {
        pc.raw() >> 2
    }

    /// Predicts the branch at `pc`, then updates all tables with the real
    /// `taken` outcome. Returns `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: Addr, taken: bool) -> bool {
        let pci = Self::pc_index(pc);
        let gi = pci ^ self.history;
        let g = self.gshare.predict(gi);
        let b = self.bimodal.predict(pci);
        let use_gshare = self.chooser.predict(pci);
        let prediction = if use_gshare { g } else { b };

        // Chooser trains toward the component that was right (only when
        // they disagree).
        if g != b {
            self.chooser.update(pci, g == taken);
        }
        self.gshare.update(gi, taken);
        self.bimodal.update(pci, taken);
        self.history = ((self.history << 1) | taken as u64) & ((1 << self.history_bits) - 1);

        self.predictions += 1;
        let correct = prediction == taken;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Total mispredictions.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Zeroes the prediction/misprediction counters, keeping the trained
    /// tables and history — the stats boundary after warm-up.
    pub fn reset_counters(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }

    /// Copies `other`'s trained state (the three counter tables and the
    /// global history), keeping this predictor's counters: what
    /// [`Self::load_state`] restores from `other`'s [`Self::save_state`]
    /// bytes.
    pub fn copy_tables_from(&mut self, other: &HybridPredictor) {
        self.gshare.clone_from(&other.gshare);
        self.bimodal.clone_from(&other.bimodal);
        self.chooser.clone_from(&other.chooser);
        self.history = other.history;
        self.history_bits = other.history_bits;
    }

    /// Serialises the trained state (all three counter tables and the
    /// global history); the prediction counters are statistics and are not
    /// part of the snapshot.
    pub fn save_state(&self, e: &mut Encoder) {
        e.put_u8_slice(&self.gshare.table);
        e.put_u8_slice(&self.bimodal.table);
        e.put_u8_slice(&self.chooser.table);
        e.put_u64(self.history);
    }

    /// Restores state written by [`Self::save_state`] into a predictor of
    /// the same geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] if any table size differs.
    pub fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        d.u8_slice_into(&mut self.gshare.table)?;
        d.u8_slice_into(&mut self.bimodal.table)?;
        d.u8_slice_into(&mut self.chooser.table)?;
        self.history = d.u64()?;
        Ok(())
    }

    /// Misprediction ratio (0.0 before any prediction).
    pub fn mispredict_ratio(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::rng::SimRng;

    #[test]
    fn learns_always_taken() {
        let mut p = HybridPredictor::micro2003();
        let pc = Addr::new(0x400);
        for _ in 0..10 {
            p.predict_and_update(pc, true);
        }
        // After warm-up, the predictor must be right every time.
        for _ in 0..100 {
            assert!(p.predict_and_update(pc, true));
        }
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = HybridPredictor::micro2003();
        let pc = Addr::new(0x800);
        let mut correct_late = 0;
        for i in 0..2000u64 {
            let taken = i % 2 == 0;
            let c = p.predict_and_update(pc, taken);
            if i >= 1000 && c {
                correct_late += 1;
            }
        }
        // A pure bimodal predictor is ~50% on alternation; the gshare side
        // captures the pattern almost perfectly.
        assert!(correct_late > 950, "late accuracy {correct_late}/1000");
    }

    #[test]
    fn random_branches_are_hard() {
        let mut p = HybridPredictor::micro2003();
        let mut rng = SimRng::seeded(3);
        let pc = Addr::new(0xc00);
        for _ in 0..5000 {
            p.predict_and_update(pc, rng.chance(0.5));
        }
        let r = p.mispredict_ratio();
        assert!(r > 0.35 && r < 0.65, "random stream ratio {r}");
    }

    #[test]
    fn biased_branches_are_mostly_right() {
        let mut p = HybridPredictor::micro2003();
        let mut rng = SimRng::seeded(7);
        for i in 0..10_000u64 {
            let pc = Addr::new(0x1000 + (i % 16) * 4);
            p.predict_and_update(pc, rng.chance(0.9));
        }
        let r = p.mispredict_ratio();
        assert!(r < 0.2, "90%-biased stream mispredicts at {r}");
    }

    #[test]
    fn counters_start_neutral_and_stats_accumulate() {
        let mut p = HybridPredictor::new(1024);
        assert_eq!(p.mispredict_ratio(), 0.0);
        p.predict_and_update(Addr::new(4), true);
        assert_eq!(p.predictions(), 1);
        assert!(p.mispredictions() <= 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = HybridPredictor::new(1000);
    }

    #[test]
    fn state_roundtrip_preserves_training_and_resets_counters() {
        let mut p = HybridPredictor::new(1024);
        let mut rng = SimRng::seeded(13);
        for i in 0..5_000u64 {
            let pc = Addr::new(0x2000 + (i % 64) * 4);
            p.predict_and_update(pc, rng.chance(0.8));
        }
        let mut e = Encoder::new();
        p.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut restored = HybridPredictor::new(1024);
        let mut d = Decoder::new(&bytes);
        restored.load_state(&mut d).expect("load");
        d.finish().expect("no trailing bytes");
        assert_eq!(restored.predictions(), 0, "counters are not snapshotted");

        p.reset_counters();
        assert_eq!(p.predictions(), 0);
        // Both predictors must now produce identical outcome streams.
        for i in 0..5_000u64 {
            let pc = Addr::new(0x2000 + (i % 64) * 4);
            let taken = rng.chance(0.8);
            assert_eq!(
                p.predict_and_update(pc, taken),
                restored.predict_and_update(pc, taken),
                "prediction {i} diverged"
            );
        }
        assert_eq!(p.mispredictions(), restored.mispredictions());
    }

    #[test]
    fn load_rejects_geometry_mismatch() {
        let p = HybridPredictor::new(1024);
        let mut e = Encoder::new();
        p.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut wrong = HybridPredictor::new(2048);
        let mut d = Decoder::new(&bytes);
        assert!(wrong.load_state(&mut d).is_err());
    }
}
