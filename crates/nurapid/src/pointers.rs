//! Forward/reverse-pointer overhead analysis (paper Section 2.4.3).
//!
//! Fully flexible distance associativity needs a forward pointer wide
//! enough to name any frame in any d-group and a reverse pointer wide
//! enough to name any tag entry. The paper's example: an 8-MB cache with
//! 128-B blocks needs 16-bit pointers (64 K frames), amounting to 256 KB
//! of pointer storage — a 3% overhead against the 5% overhead of the
//! 51-bit tag entries themselves. Restricting each block to a subset of
//! frames within each d-group shrinks the pointers (4 d-groups × 256
//! candidate frames ⇒ 10 bits).

use simbase::Capacity;

/// Pointer sizing for a NuRAPID organization.
///
/// # Examples
///
/// ```
/// use nurapid::pointers::PointerScheme;
/// use simbase::Capacity;
///
/// // The paper's example: 8-MB cache, 128-B blocks, fully flexible
/// // placement needs 16-bit pointers; restricting to 256 frames per
/// // d-group (of 4) shrinks them to 10 bits.
/// let cap = Capacity::from_mib(8);
/// assert_eq!(PointerScheme::flexible(cap, 128, 4).forward_pointer_bits(), 16);
/// assert_eq!(
///     PointerScheme::restricted(cap, 128, 4, 256).forward_pointer_bits(),
///     10
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerScheme {
    /// Total block frames in the cache.
    pub total_frames: u64,
    /// Number of d-groups.
    pub n_dgroups: u64,
    /// Frames a block may occupy within each d-group (`None` = all).
    pub frames_per_dgroup_restriction: Option<u64>,
}

impl PointerScheme {
    /// Fully flexible placement over `capacity` of `block_bytes` blocks in
    /// `n_dgroups` d-groups.
    pub fn flexible(capacity: Capacity, block_bytes: u64, n_dgroups: u64) -> Self {
        PointerScheme {
            total_frames: capacity.bytes() / block_bytes,
            n_dgroups,
            frames_per_dgroup_restriction: None,
        }
    }

    /// Placement restricted to `frames` candidate frames per d-group
    /// (Section 2.4.3's pointer-shrinking option).
    pub fn restricted(capacity: Capacity, block_bytes: u64, n_dgroups: u64, frames: u64) -> Self {
        assert!(frames.is_power_of_two(), "restriction should be a power of two");
        PointerScheme {
            total_frames: capacity.bytes() / block_bytes,
            n_dgroups,
            frames_per_dgroup_restriction: Some(frames),
        }
    }

    /// Bits per forward pointer: it must select a d-group and a candidate
    /// frame within it.
    pub fn forward_pointer_bits(&self) -> u32 {
        match self.frames_per_dgroup_restriction {
            None => log2_ceil(self.total_frames),
            Some(frames) => log2_ceil(self.n_dgroups) + log2_ceil(frames),
        }
    }

    /// Bits per reverse pointer (one tag entry per frame, so the same
    /// width as a flexible forward pointer).
    pub fn reverse_pointer_bits(&self) -> u32 {
        log2_ceil(self.total_frames)
    }

    /// Total forward-pointer storage in bytes (one per tag entry).
    pub fn forward_storage_bytes(&self) -> u64 {
        self.total_frames * self.forward_pointer_bits() as u64 / 8
    }

    /// Forward-pointer overhead as a fraction of total cache capacity.
    pub fn forward_overhead(&self, capacity: Capacity) -> f64 {
        self.forward_storage_bytes() as f64 / capacity.bytes() as f64
    }
}

fn log2_ceil(x: u64) -> u32 {
    assert!(x > 0, "log2 of zero");
    64 - (x - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Capacity = Capacity::from_mib(8);

    #[test]
    fn paper_example_flexible_pointers_are_16_bits() {
        // Section 2.4.3: "in an 8-MB cache with 128B blocks, 16-bit
        // forward and reverse pointers would be required for complete
        // flexibility. This amounts to 256-KB of pointers."
        let s = PointerScheme::flexible(CAP, 128, 4);
        assert_eq!(s.forward_pointer_bits(), 16);
        assert_eq!(s.reverse_pointer_bits(), 16);
        assert_eq!(s.forward_storage_bytes(), 128 * 1024); // per direction
                                                           // Forward + reverse together: 256 KB, ~3% of 8 MB.
        let both = 2.0 * s.forward_overhead(CAP);
        assert!((both - 0.03).abs() < 0.005, "overhead {both}");
    }

    #[test]
    fn paper_example_restriction_shrinks_to_10_bits() {
        // Section 2.4.3: "If our example cache has 4 d-groups, and we
        // restrict placement of each block to 256 frames within each
        // d-group, the pointer size is reduced to 10 bits."
        let s = PointerScheme::restricted(CAP, 128, 4, 256);
        assert_eq!(s.forward_pointer_bits(), 2 + 8);
    }

    #[test]
    fn larger_blocks_shrink_pointers() {
        // Section 2.4.3: "as block sizes increase, the size of the
        // pointers ... will decrease."
        let small = PointerScheme::flexible(CAP, 128, 4);
        let large = PointerScheme::flexible(CAP, 512, 4);
        assert!(large.forward_pointer_bits() < small.forward_pointer_bits());
        assert!(large.forward_storage_bytes() < small.forward_storage_bytes());
    }

    #[test]
    fn log2_ceil_edges() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(65_536), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn restriction_must_be_power_of_two() {
        let _ = PointerScheme::restricted(CAP, 128, 4, 300);
    }
}
