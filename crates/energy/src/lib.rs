//! Energy accounting (paper Section 4, Wattch + modified Cacti).
//!
//! The paper replaces Wattch's cache energy model with Cacti-derived
//! per-operation energies (Table 2) and keeps Wattch for the rest of the
//! processor. This crate does the same: [`l2`] prices the conventional
//! hierarchy's L2/L3 accesses with the [`cachemodel`] energies (NuRAPID
//! and D-NUCA price their own event counts, in `nurapid::energy` and
//! `nuca::energy`), and [`core`] charges Wattch-like per-event constants for the out-of-order
//! engine, L1s, and main memory. [`EnergyTally`] aggregates both into the
//! totals behind the paper's two headline energy results: **77% lower L2
//! dynamic energy than D-NUCA** and **7% lower processor energy-delay
//! than both D-NUCA and the conventional hierarchy**.
//!
//! # Examples
//!
//! ```
//! use energy::EnergyTally;
//! use simbase::EnergyNj;
//!
//! let t = EnergyTally {
//!     core: EnergyNj::new(100.0),
//!     l1: EnergyNj::new(20.0),
//!     l2: EnergyNj::new(10.0),
//!     memory: EnergyNj::new(5.0),
//! };
//! assert_eq!(t.total().nj(), 135.0);
//! assert_eq!(t.energy_delay(1_000), 135_000.0);
//! ```

pub mod core;
pub mod l2;
pub mod l4;

use simbase::EnergyNj;

/// Full-system dynamic energy broken down by subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTally {
    /// Out-of-order engine: fetch/rename/issue/commit, functional units,
    /// branch handling, clock.
    pub core: EnergyNj,
    /// L1 instruction and data caches.
    pub l1: EnergyNj,
    /// The lower-level cache under study (L2, or L2+L3 for the base).
    pub l2: EnergyNj,
    /// Off-chip DRAM accesses.
    pub memory: EnergyNj,
}

impl EnergyTally {
    /// Total dynamic energy.
    pub fn total(&self) -> EnergyNj {
        self.core + self.l1 + self.l2 + self.memory
    }

    /// Energy-delay product in nJ·cycles (the paper's Figure 11 metric;
    /// only relative values matter).
    pub fn energy_delay(&self, cycles: u64) -> f64 {
        self.total().nj() * cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let t = EnergyTally {
            core: EnergyNj::new(1.0),
            l1: EnergyNj::new(2.0),
            l2: EnergyNj::new(3.0),
            memory: EnergyNj::new(4.0),
        };
        assert_eq!(t.total().nj(), 10.0);
        assert_eq!(t.energy_delay(10), 100.0);
    }
}
