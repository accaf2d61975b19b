//! Common simulation types for the NuRAPID reproduction.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace: physical [`Addr`]esses and block framing, [`Cycle`] timestamps,
//! [`EnergyNj`] accounting, deterministic random number generation
//! ([`rng::SimRng`]), stable configuration digests ([`digest`]),
//! lightweight statistics ([`stats`]), the versioned checkpoint codec
//! ([`snapshot`]), and the in-tree JSON value model ([`json`]) shared by
//! the artifact and telemetry layers.
//!
//! # Examples
//!
//! ```
//! use simbase::{Addr, BlockGeometry, Cycle};
//!
//! let geom = BlockGeometry::new(128); // 128-byte cache blocks
//! let a = Addr::new(0x1_0080);
//! assert_eq!(geom.block_of(a).index(), 0x1_0080 / 128);
//! assert_eq!(Cycle::ZERO + 5, Cycle::new(5));
//! ```

pub mod digest;
pub mod json;
pub mod rng;
pub mod snapshot;
pub mod stats;

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A physical byte address in the simulated machine.
///
/// Addresses are 64-bit, matching the paper's 64-bit-address cache
/// (Section 2.4.3 sizes the tag entries for a 64-bit address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0.wrapping_add(bytes))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-block identifier: the address with the intra-block offset removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block index (address divided by block size).
    pub const fn from_index(index: u64) -> Self {
        BlockAddr(index)
    }

    /// Returns the block index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

/// Block framing parameters: how byte addresses map to cache blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGeometry {
    block_bytes: u64,
    offset_bits: u32,
}

impl BlockGeometry {
    /// Creates a geometry for power-of-two `block_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or not a power of two.
    pub fn new(block_bytes: u64) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a nonzero power of two, got {block_bytes}"
        );
        BlockGeometry {
            block_bytes,
            offset_bits: block_bytes.trailing_zeros(),
        }
    }

    /// Block size in bytes.
    pub const fn block_bytes(self) -> u64 {
        self.block_bytes
    }

    /// Number of address bits consumed by the intra-block offset.
    pub const fn offset_bits(self) -> u32 {
        self.offset_bits
    }

    /// Returns the block containing byte address `a`.
    pub const fn block_of(self, a: Addr) -> BlockAddr {
        BlockAddr(a.raw() >> self.offset_bits)
    }

    /// Returns the first byte address of block `b`.
    pub const fn base_of(self, b: BlockAddr) -> Addr {
        Addr::new(b.index() << self.offset_bits)
    }
}

/// A simulation timestamp or duration, in processor clock cycles.
///
/// The paper's machine runs at 5 GHz in 70 nm technology (Section 4); all
/// latencies in the workspace are expressed in these cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Cycle zero (simulation start).
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count.
    pub const fn new(c: u64) -> Self {
        Cycle(c)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction, returning a duration in cycles.
    pub const fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two timestamps.
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0.checked_sub(rhs.0).expect("cycle subtraction underflow")
    }
}

/// Dynamic energy, in nanojoules.
///
/// Table 2 of the paper reports per-operation cache energies in nJ; all
/// energy bookkeeping in the workspace uses this unit.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct EnergyNj(f64);

impl EnergyNj {
    /// Zero energy.
    pub const ZERO: EnergyNj = EnergyNj(0.0);

    /// Creates an energy value.
    ///
    /// # Panics
    ///
    /// Panics if `nj` is negative or not finite.
    pub fn new(nj: f64) -> Self {
        assert!(nj.is_finite() && nj >= 0.0, "energy must be finite and non-negative, got {nj}");
        EnergyNj(nj)
    }

    /// Returns the value in nanojoules.
    pub const fn nj(self) -> f64 {
        self.0
    }

    /// Returns the value in joules.
    pub fn joules(self) -> f64 {
        self.0 * 1e-9
    }
}

impl fmt::Display for EnergyNj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}nJ", self.0)
    }
}

impl Add for EnergyNj {
    type Output = EnergyNj;
    fn add(self, rhs: EnergyNj) -> EnergyNj {
        EnergyNj(self.0 + rhs.0)
    }
}

impl AddAssign for EnergyNj {
    fn add_assign(&mut self, rhs: EnergyNj) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for EnergyNj {
    type Output = EnergyNj;
    fn mul(self, rhs: u64) -> EnergyNj {
        EnergyNj(self.0 * rhs as f64)
    }
}

impl Mul<f64> for EnergyNj {
    type Output = EnergyNj;
    fn mul(self, rhs: f64) -> EnergyNj {
        EnergyNj(self.0 * rhs)
    }
}

impl std::iter::Sum for EnergyNj {
    fn sum<I: Iterator<Item = EnergyNj>>(iter: I) -> EnergyNj {
        iter.fold(EnergyNj::ZERO, |a, b| a + b)
    }
}

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (or instruction fetch) access.
    Read,
    /// A store access.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Capacity expressed in bytes with convenience constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Capacity(u64);

impl Capacity {
    /// Creates a capacity from bytes.
    pub const fn from_bytes(b: u64) -> Self {
        Capacity(b)
    }

    /// Creates a capacity from kibibytes.
    pub const fn from_kib(k: u64) -> Self {
        Capacity(k * 1024)
    }

    /// Creates a capacity from mebibytes.
    pub const fn from_mib(m: u64) -> Self {
        Capacity(m * 1024 * 1024)
    }

    /// Returns the capacity in bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Returns the capacity in kibibytes (truncating).
    pub const fn kib(self) -> u64 {
        self.0 / 1024
    }

    /// Returns the capacity in mebibytes (truncating).
    pub const fn mib(self) -> u64 {
        self.0 / (1024 * 1024)
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 && self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{}MB", self.mib())
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{}KB", self.kib())
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_roundtrip_and_offset() {
        let a = Addr::new(0xdead_beef);
        assert_eq!(a.raw(), 0xdead_beef);
        assert_eq!(a.offset(0x11).raw(), 0xdead_bf00);
        assert_eq!(format!("{a}"), "0xdeadbeef");
    }

    #[test]
    fn addr_offset_wraps() {
        let a = Addr::new(u64::MAX);
        assert_eq!(a.offset(1).raw(), 0);
    }

    #[test]
    fn block_geometry_maps_addresses() {
        let g = BlockGeometry::new(128);
        assert_eq!(g.offset_bits(), 7);
        assert_eq!(g.block_of(Addr::new(0)).index(), 0);
        assert_eq!(g.block_of(Addr::new(127)).index(), 0);
        assert_eq!(g.block_of(Addr::new(128)).index(), 1);
        assert_eq!(g.base_of(BlockAddr::from_index(3)).raw(), 384);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn block_geometry_rejects_non_power_of_two() {
        let _ = BlockGeometry::new(96);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn block_geometry_rejects_zero() {
        let _ = BlockGeometry::new(0);
    }

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle::new(10);
        assert_eq!((c + 5).raw(), 15);
        assert_eq!(c + 5 - c, 5);
        assert_eq!(c.max(Cycle::new(3)), c);
        assert_eq!(Cycle::new(3).max(c), c);
        assert_eq!(Cycle::new(3).saturating_since(c), 0);
        assert_eq!(c.saturating_since(Cycle::new(3)), 7);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cycle_subtraction_underflow_panics() {
        let _ = Cycle::new(1) - Cycle::new(2);
    }

    #[test]
    fn energy_accumulates() {
        let mut e = EnergyNj::ZERO;
        e += EnergyNj::new(0.42);
        e += EnergyNj::new(3.3);
        assert!((e.nj() - 3.72).abs() < 1e-12);
        assert!((e.joules() - 3.72e-9).abs() < 1e-21);
        assert_eq!((EnergyNj::new(0.5) * 4u64).nj(), 2.0);
        let total: EnergyNj = [EnergyNj::new(1.0), EnergyNj::new(2.0)].into_iter().sum();
        assert_eq!(total.nj(), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn energy_rejects_negative() {
        let _ = EnergyNj::new(-1.0);
    }

    #[test]
    fn capacity_display() {
        assert_eq!(Capacity::from_mib(8).to_string(), "8MB");
        assert_eq!(Capacity::from_kib(64).to_string(), "64KB");
        assert_eq!(Capacity::from_bytes(100).to_string(), "100B");
        assert_eq!(Capacity::from_mib(2).bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn access_kind_is_write() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }
}
