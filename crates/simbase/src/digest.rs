//! Stable structural digests for experiment configurations.
//!
//! The experiment scheduler (`crates/simsched`) keys its run store and
//! on-disk artifacts by a digest of the *full* configuration — capacity,
//! associativity, policies, seeds, instruction budget — rather than by a
//! human-readable label, so two distinct configurations can never alias
//! (and the same configuration is recognized across processes when a
//! sweep resumes from artifacts).
//!
//! The hash is **FNV-1a over 128 bits** with the standard offset basis
//! and prime. It is not cryptographic; it only needs to be (a) stable
//! across runs, platforms, and compiler versions, and (b) wide enough
//! that accidental collisions among the few hundred configurations a
//! sweep ever sees are out of the question. Every multi-byte value is
//! fed in little-endian order, strings are length-prefixed, and floats
//! are hashed by bit pattern, so the digest is a deterministic function
//! of structure, not of formatting.
//!
//! # Examples
//!
//! ```
//! use simbase::digest::Hasher128;
//!
//! let mut h = Hasher128::new();
//! h.write_str("nf4");
//! h.write_u64(8 << 20);
//! let d = h.digest();
//! assert_eq!(d.hex().len(), 32);
//!
//! let mut h2 = Hasher128::new();
//! h2.write_str("nf4");
//! h2.write_u64(8 << 20);
//! assert_eq!(d, h2.digest());
//! ```

use std::fmt;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit structural digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(u128);

impl Digest {
    /// Reconstructs a digest from its raw value.
    pub const fn from_raw(raw: u128) -> Self {
        Digest(raw)
    }

    /// The raw 128-bit value.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Lower-case hexadecimal rendering (32 characters, zero-padded) —
    /// the form used in artifact manifests.
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the [`Digest::hex`] rendering.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Digest)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Streaming FNV-1a 128-bit hasher with typed, framing-safe writers.
#[derive(Debug, Clone)]
pub struct Hasher128 {
    state: u128,
}

impl Hasher128 {
    /// A fresh hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Hasher128 { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte (used for enum discriminants).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u32` in little-endian order.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64` in little-endian order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a digest, high `u64` first: chains one digest into another
    /// under a new domain tag.
    pub fn write_digest(&mut self, d: Digest) {
        self.write_u64((d.0 >> 64) as u64);
        self.write_u64(d.0 as u64);
    }

    /// Feeds every knob `cfg` declares, in declaration order: a run
    /// digest's view of a configuration.
    pub fn write_knobs<K: Knobs + Clone>(&mut self, cfg: &K) {
        let mut cfg = cfg.clone();
        cfg.visit_knobs(&mut |_, knob: &mut dyn Knob| knob.feed(self));
    }

    /// Feeds only the [`Tag::Arch`] knobs of `cfg`: a warm-up digest's
    /// view of a configuration.
    pub fn write_arch_knobs<K: Knobs + Clone>(&mut self, cfg: &K) {
        let mut cfg = cfg.clone();
        cfg.visit_knobs(&mut |tag, knob: &mut dyn Knob| {
            if tag == Tag::Arch {
                knob.feed(self);
            }
        });
    }

    /// The digest of everything written so far.
    pub const fn digest(&self) -> Digest {
        Digest(self.state)
    }
}

impl Default for Hasher128 {
    fn default() -> Self {
        Hasher128::new()
    }
}

/// Whether a configuration knob can shape the state a warm-up builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// It shapes warm-up state: it enters warm-up and run digests.
    Arch,
    /// It changes only timing or the measured phase, for the reason given:
    /// it enters run digests only, so its variants share a checkpoint.
    Timing(&'static str),
}

/// One configuration field.
pub trait Knob {
    /// Feeds the value: exactly the bytes every digest holds for it.
    fn feed(&self, h: &mut Hasher128);

    /// Changes the value to another that still builds: doubles a number
    /// (0 becomes 1), toggles a flag, rotates an enum to its next variant.
    fn perturb(&mut self);
}

/// Receives each knob once, with its tag, in declaration order.
pub type KnobVisitor<'v> = dyn FnMut(Tag, &mut dyn Knob) + 'v;

/// A configuration that declares its knobs, usually through
/// [`knobs!`](crate::knobs). Every digest of it derives from this.
pub trait Knobs {
    /// Visits every field once, in declaration order.
    fn visit_knobs(&mut self, v: &mut KnobVisitor<'_>);
}

/// Implements [`Knobs`] for a struct from `field: tag` rows, visited in
/// the order written. The struct is destructured without `..`, so a
/// field added later fails to compile until it gets a row. A row may
/// name the knob to visit in place of the field (`field: tag => knob`).
#[macro_export]
macro_rules! knobs {
    (@knob $field:ident) => { $field };
    (@knob $field:ident, $knob:expr) => { $knob };
    ($ty:ident { $($field:ident: $tag:expr $(=> $knob:expr)?),+ $(,)? }) => {
        impl $crate::digest::Knobs for $ty {
            fn visit_knobs(&mut self, v: &mut $crate::digest::KnobVisitor<'_>) {
                let $ty { $($field),+ } = self;
                $(v($tag, $crate::knobs!(@knob $field $(, $knob)?));)+
            }
        }
    };
}

/// A fieldless enum knob: fed as its index in [`Variants::ALL`] (one
/// byte), perturbed to the next variant.
pub trait Variants: Copy + PartialEq + 'static {
    /// Every variant, in digest-index order.
    const ALL: &'static [Self];
}

impl<T: Variants> Knob for T {
    fn feed(&self, h: &mut Hasher128) {
        h.write_u8(variant_index(self) as u8);
    }

    fn perturb(&mut self) {
        *self = T::ALL[(variant_index(self) + 1) % T::ALL.len()];
    }
}

fn variant_index<T: Variants>(v: &T) -> usize {
    let i = T::ALL.iter().position(|x| x == v);
    i.expect("every variant is in Variants::ALL")
}

/// Integers are fed little-endian at their width (`usize` as a `u64`).
macro_rules! int_knob {
    ($($t:ty => $write:ident),*) => {$(
        impl Knob for $t {
            fn feed(&self, h: &mut Hasher128) {
                h.$write(*self as _);
            }

            fn perturb(&mut self) {
                *self = if *self == 0 { 1 } else { self.wrapping_mul(2) };
            }
        }
    )*};
}

int_knob!(u32 => write_u32, u64 => write_u64, usize => write_u64);

impl Knob for bool {
    fn feed(&self, h: &mut Hasher128) {
        h.write_u8(*self as u8);
    }

    fn perturb(&mut self) {
        *self = !*self;
    }
}

/// By bit pattern, so `0.0` and `-0.0` differ.
impl Knob for f64 {
    fn feed(&self, h: &mut Hasher128) {
        h.write_u64(self.to_bits());
    }

    fn perturb(&mut self) {
        *self = if *self == 0.0 { 1.0 } else { *self * 2.0 };
    }
}

impl Knob for crate::Capacity {
    fn feed(&self, h: &mut Hasher128) {
        h.write_u64(self.bytes());
    }

    fn perturb(&mut self) {
        *self = crate::Capacity::from_bytes((self.bytes() * 2).max(1));
    }
}

/// A presence byte, then the value.
impl Knob for Option<u32> {
    fn feed(&self, h: &mut Hasher128) {
        h.write_u8(self.is_some() as u8);
        if let Some(x) = self {
            h.write_u32(*x);
        }
    }

    fn perturb(&mut self) {
        *self = Some(self.map_or(1, |x| (x * 2).max(1)));
    }
}

/// An `(op index, value)` schedule: its length, then its pairs. Perturbed
/// by appending a pair one op after the last.
impl Knob for Vec<(u64, u32)> {
    fn feed(&self, h: &mut Hasher128) {
        h.write_u64(self.len() as u64);
        for &(at, value) in self {
            h.write_u64(at);
            h.write_u32(value);
        }
    }

    fn perturb(&mut self) {
        let at = self.last().map_or(0, |&(at, _)| at + 1);
        self.push((at, 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_is_offset_basis() {
        assert_eq!(Hasher128::new().digest().raw(), FNV_OFFSET);
    }

    #[test]
    fn fnv1a_test_vector() {
        // FNV-1a 128 of "a": well-known published value.
        let mut h = Hasher128::new();
        h.write_bytes(b"a");
        assert_eq!(h.digest().hex(), "d228cb696f1a8caf78912b704e4a8964");
    }

    #[test]
    fn digests_are_order_and_framing_sensitive() {
        let d = |parts: &[&str]| {
            let mut h = Hasher128::new();
            for p in parts {
                h.write_str(p);
            }
            h.digest()
        };
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
        assert_ne!(d(&["a", "b"]), d(&["b", "a"]));
        assert_eq!(d(&["a", "b"]), d(&["a", "b"]));
    }

    #[test]
    fn hex_roundtrips() {
        let mut h = Hasher128::new();
        h.write_u64(0xdead_beef);
        std::f64::consts::PI.feed(&mut h);
        Some(7u32).feed(&mut h);
        None::<u32>.feed(&mut h);
        let d = h.digest();
        assert_eq!(Digest::from_hex(&d.hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(""), None);
    }

    #[test]
    fn float_bit_patterns_distinguish_zero_signs() {
        let mut a = Hasher128::new();
        0.0f64.feed(&mut a);
        let mut b = Hasher128::new();
        (-0.0f64).feed(&mut b);
        assert_ne!(a.digest(), b.digest());
    }
}
