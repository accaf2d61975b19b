//! Versioned binary checkpoint codec for architectural state.
//!
//! The warm-up engine (`experiments::runner`) snapshots the complete
//! architectural state of a warmed system — tag arrays, d-group contents,
//! LRU orders, forward/reverse pointers, RNG streams — so later runs that
//! share a warm-up configuration can restore it instead of re-warming.
//! Those snapshots live on disk across processes, which makes them a file
//! format: this module owns the container framing (magic, version,
//! payload length, checksum) and the primitive encoders/decoders, so a
//! truncated write, a corrupted byte, or a snapshot from an older codec
//! version is *detected* rather than silently deserialized into a subtly
//! wrong cache.
//!
//! The container layout, all little-endian:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"SIMCHK\x00\x02"
//!      8     4  version (u32, chosen by the payload's owner)
//!     12     8  payload length (u64)
//!     20     n  payload
//!   20+n    16  lane checksum of the header and payload
//! ```
//!
//! The checksum is four independent 64-bit multiply-rotate lanes (the
//! xxHash64 round and primes) over 32-byte stripes: the 20-byte header
//! zero-padded to one stripe, then the payload, its tail zero-padded to
//! a last stripe, then the two 64-bit halves folded from the lanes and
//! the covered length. The lanes run in parallel, so checking a
//! multi-megabyte checkpoint costs a small fraction of reading it. It is
//! not cryptographic, but every step is a bijection of the word it
//! absorbs and of the lane state, so any change confined to one 8-byte
//! word (every single-bit flip, every single-byte corruption) is always
//! detected, and the length in the header catches every truncation.
//! The magic's last two bytes are the layout revision: a container of
//! any other revision is `BadMagic`, and its owner rebuilds it.
//!
//! Payload contents are the owner's business; [`Encoder`] / [`Decoder`]
//! provide the primitive layer (u8/u32/u64/bool, length-prefixed u8/u32/
//! u64 slices) with every read bounds-checked against [`SnapshotError`].
//! The `*_into` readers decode a slice into a buffer the caller already
//! owns and reject a stored length that differs from it, so a restore
//! neither allocates nor repeats the geometry check by hand.

use std::fmt;
use std::io::{self, Write};

/// Container magic: "SIMCHK" plus a two-byte layout revision.
pub const MAGIC: [u8; 8] = *b"SIMCHK\x00\x02";

/// Bytes of header ahead of the payload (magic + version + length).
const HEADER: usize = 8 + 4 + 8;

/// Bytes of framing around a payload (header + checksum).
pub const OVERHEAD: usize = HEADER + 16;

/// Why a snapshot failed to open or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the declared content did.
    Truncated,
    /// The container does not start with [`MAGIC`].
    BadMagic,
    /// The container's version differs from the expected one.
    VersionMismatch {
        /// Version found in the container.
        found: u32,
        /// Version the reader expected.
        expected: u32,
    },
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch,
    /// A decoded value violates an invariant (context in the message).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a SIMCHK snapshot"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found}, expected {expected}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The xxHash64 primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

/// One lane step: a bijection of `word` for a fixed `acc`, and of `acc`
/// for a fixed `word`.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds the four lanes into 64 bits, starting from `seed`. Each lane
/// enters through a bijection, so changing any one lane changes the fold.
fn fold(lanes: [u64; 4], seed: u64) -> u64 {
    let mut h = seed;
    for lane in lanes {
        h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The four checksum lanes; word `i` of a stripe feeds lane `i`.
struct Lanes([u64; 4]);

impl Lanes {
    fn new() -> Self {
        Lanes([P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()])
    }

    #[inline(always)]
    fn stripe(&mut self, s: &[u8; 32]) {
        for (i, lane) in self.0.iter_mut().enumerate() {
            let word = u64::from_le_bytes(s[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            *lane = round(*lane, word);
        }
    }

    /// Absorbs `bytes` stripe by stripe, the tail zero-padded to a last
    /// stripe.
    fn absorb(&mut self, bytes: &[u8]) {
        let mut stripes = bytes.chunks_exact(32);
        for s in &mut stripes {
            self.stripe(s.try_into().expect("32 bytes"));
        }
        let tail = stripes.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 32];
            last[..tail.len()].copy_from_slice(tail);
            self.stripe(&last);
        }
    }
}

/// The container checksum of `header` followed by `payload`.
fn checksum(header: &[u8], payload: &[u8]) -> [u8; 16] {
    let mut lanes = Lanes::new();
    lanes.absorb(header);
    lanes.absorb(payload);
    let covered = (header.len() + payload.len()) as u64;
    let [a, b, c, d] = lanes.0;
    let lo = fold([a, b, c, d], covered);
    let hi = fold([d, c, b, a], covered ^ P3);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&lo.to_le_bytes());
    out[8..].copy_from_slice(&hi.to_le_bytes());
    out
}

/// Writes `payload` to `w` as a versioned, checksummed container,
/// without copying the payload into a sealed buffer first.
///
/// # Errors
///
/// Propagates the first write error.
pub fn seal_into(w: &mut impl Write, version: u32, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; HEADER];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.write_all(&checksum(&header, payload))
}

/// Wraps `payload` in the versioned, checksummed container.
pub fn seal(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + OVERHEAD);
    seal_into(&mut out, version, payload).expect("writing to a Vec cannot fail");
    out
}

/// Validates a sealed container and returns its payload slice.
///
/// Checks, in order: magic, version, declared length against the actual
/// byte count, and the trailing checksum. The checks are ordered so the
/// most informative error wins — a snapshot from an older codec reports
/// [`SnapshotError::VersionMismatch`], not a checksum failure.
pub fn open(bytes: &[u8], expected_version: u32) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 8 {
        return Err(if bytes == &MAGIC[..bytes.len()] {
            SnapshotError::Truncated
        } else {
            SnapshotError::BadMagic
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != expected_version {
        return Err(SnapshotError::VersionMismatch { found: version, expected: expected_version });
    }
    let len = u64::from_le_bytes(bytes[12..HEADER].try_into().expect("8 bytes")) as usize;
    let Some(total) = len.checked_add(OVERHEAD) else {
        return Err(SnapshotError::Malformed("payload length overflows"));
    };
    if bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    if bytes.len() > total {
        return Err(SnapshotError::Malformed("trailing bytes after checksum"));
    }
    let (header, rest) = bytes.split_at(HEADER);
    let (payload, stored) = rest.split_at(len);
    if checksum(header, payload) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

/// [`open`] over an owned container: on success the envelope is stripped
/// in place and the buffer becomes the payload, with no second copy.
pub fn open_owned(mut bytes: Vec<u8>, expected_version: u32) -> Result<Vec<u8>, SnapshotError> {
    let len = open(&bytes, expected_version)?.len();
    bytes.truncate(HEADER + len);
    bytes.drain(..HEADER);
    Ok(bytes)
}

/// Little-endian primitive writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `usize` as a `u64` (platform-independent framing).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_u8_slice(&mut self, vs: &[u8]) {
        self.put_len(vs.len());
        self.buf.extend_from_slice(vs);
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_len(vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_len(vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed *section*: `fill` populates a nested
    /// encoder, and the nested byte count is framed ahead of its bytes.
    /// A reader that knows the section's layout sub-decodes it with
    /// [`Decoder::section`]; one that doesn't can still skip it, which
    /// is what lets a snapshot owner append optional trailing sections
    /// without breaking older readers. An empty `fill` writes a valid
    /// zero-length section (just the 8-byte length prefix).
    pub fn put_section(&mut self, fill: impl FnOnce(&mut Encoder)) {
        let mut inner = Encoder::new();
        fill(&mut inner);
        self.put_u8_slice(&inner.buf);
    }
}

/// Bounds-checked little-endian reader over a snapshot payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// A decoder over `bytes` (typically the slice [`open`] returned).
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Fails unless every byte was consumed — catches payload/decoder
    /// drift that would otherwise misalign every later field.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("unconsumed payload bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool byte not 0 or 1")),
        }
    }

    /// Reads a length written by [`Encoder::put_len`], bounds-checked
    /// against the remaining bytes so a corrupt length cannot drive a
    /// huge allocation.
    pub fn len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        if v > self.bytes.len() as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed byte slice.
    pub fn u8_slice(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.u64()?;
        if n > (self.bytes.len() / 8) as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.u64()?;
        if n > (self.bytes.len() / 4) as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads the length prefix of a slice that must hold exactly `want`
    /// elements.
    fn slice_len(&mut self, want: usize) -> Result<(), SnapshotError> {
        if self.u64()? != want as u64 {
            return Err(SnapshotError::Malformed("slice length mismatch"));
        }
        Ok(())
    }

    /// Reads a length-prefixed byte slice into `dst`, which must have the
    /// stored length. Restores decode into the buffers they already own
    /// instead of building a second copy beside them.
    pub fn u8_slice_into(&mut self, dst: &mut [u8]) -> Result<(), SnapshotError> {
        self.slice_len(dst.len())?;
        dst.copy_from_slice(self.take(dst.len())?);
        Ok(())
    }

    /// Reads a length-prefixed `u32` slice into `dst`, which must have the
    /// stored length.
    pub fn u32_slice_into(&mut self, dst: &mut [u32]) -> Result<(), SnapshotError> {
        self.slice_len(dst.len())?;
        let src = self.take(dst.len() * 4)?;
        for (v, b) in dst.iter_mut().zip(src.chunks_exact(4)) {
            *v = u32::from_le_bytes(b.try_into().expect("4 bytes"));
        }
        Ok(())
    }

    /// Reads a length-prefixed `u64` slice into `dst`, which must have the
    /// stored length.
    pub fn u64_slice_into(&mut self, dst: &mut [u64]) -> Result<(), SnapshotError> {
        self.slice_len(dst.len())?;
        let src = self.take(dst.len() * 8)?;
        for (v, b) in dst.iter_mut().zip(src.chunks_exact(8)) {
            *v = u64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
        Ok(())
    }

    /// Reads a length-prefixed `u32` slice of at most `max` elements into
    /// `dst`, replacing its contents. The buffer is reused, so this
    /// allocates only when the slice outgrows `dst`'s capacity.
    pub fn u32_vec_into(&mut self, dst: &mut Vec<u32>, max: usize) -> Result<(), SnapshotError> {
        let n = self.u64()?;
        if n > max as u64 {
            return Err(SnapshotError::Malformed("slice longer than its bound"));
        }
        let src = self.take(n as usize * 4)?;
        dst.clear();
        dst.extend(src.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes"))));
        Ok(())
    }

    /// Reads a section written by [`Encoder::put_section`], returning a
    /// sub-decoder over exactly the section's bytes. The outer decoder
    /// advances past the whole section, so calling this and ignoring
    /// the result *skips* it. A zero-length section yields an empty
    /// sub-decoder whose [`Decoder::finish`] succeeds immediately; the
    /// length prefix is bounds-checked like every other length, so a
    /// corrupt prefix fails here rather than overrunning the payload.
    pub fn section(&mut self) -> Result<Decoder<'a>, SnapshotError> {
        let n = self.len()?;
        Ok(Decoder::new(self.take(n)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"architectural state".to_vec();
        let sealed = seal(3, &payload);
        assert_eq!(sealed.len(), payload.len() + OVERHEAD);
        assert_eq!(open(&sealed, 3).unwrap(), payload.as_slice());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let sealed = seal(1, &[]);
        assert_eq!(open(&sealed, 1).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn version_mismatch_is_reported_with_both_versions() {
        let sealed = seal(2, b"x");
        assert_eq!(
            open(&sealed, 5),
            Err(SnapshotError::VersionMismatch { found: 2, expected: 5 })
        );
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut sealed = seal(1, b"x");
        sealed[0] ^= 0xFF;
        assert_eq!(open(&sealed, 1), Err(SnapshotError::BadMagic));
        assert_eq!(open(b"not a snapshot at all", 1), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn truncation_is_detected_at_every_layer() {
        let sealed = seal(1, b"payload");
        // Cut inside the magic, the header, the payload, the checksum.
        for cut in [4, 10, 22, sealed.len() - 1] {
            assert_eq!(open(&sealed[..cut], 1), Err(SnapshotError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut sealed = seal(1, b"payload bytes");
        sealed[25] ^= 0x01;
        assert_eq!(open(&sealed, 1), Err(SnapshotError::ChecksumMismatch));
    }

    /// The on-disk format cannot drift silently: one fixed container's
    /// checksum bytes are pinned.
    #[test]
    fn checksum_is_pinned() {
        let sealed = seal(2, b"NuRAPID distance associativity");
        assert_eq!(&sealed[..8], b"SIMCHK\x00\x02");
        let tail: [u8; 16] = sealed[sealed.len() - 16..].try_into().unwrap();
        assert_eq!(
            u128::from_le_bytes(tail),
            0xef3a_58d7_8cc7_f439_46c1_bf83_fba2_b447,
            "checksum drifted"
        );
    }

    /// Every single-bit flip of a ~300-byte container fails to open: in
    /// the header, in every lane of every stripe, across the stripe
    /// boundaries, in the zero-padded tail, and in the checksum itself.
    #[test]
    fn every_single_bit_flip_fails_to_open() {
        // 267 payload bytes: eight full stripes plus an 11-byte tail.
        let payload: Vec<u8> = (0..267u32).map(|i| (i * 37 + 11) as u8).collect();
        let sealed = seal(9, &payload);
        assert_eq!(sealed.len(), 303);
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(open(&bad, 9).is_err(), "flipping bit {bit} still opened");
        }
    }

    /// A container of the previous layout revision (FNV-1a-128 checksum)
    /// is refused by its magic, never decoded.
    #[test]
    fn previous_revision_is_bad_magic() {
        let mut old = b"SIMCHK\x00\x01".to_vec();
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&1u64.to_le_bytes());
        old.push(7);
        let mut h = crate::digest::Hasher128::new();
        h.write_bytes(&old);
        old.extend_from_slice(&h.digest().raw().to_le_bytes());
        assert_eq!(open(&old, 2), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn open_owned_strips_the_envelope_in_place() {
        for n in [0usize, 1, 31, 32, 33, 1000] {
            let payload: Vec<u8> = (0..n).map(|i| i as u8).collect();
            assert_eq!(open_owned(seal(3, &payload), 3), Ok(payload));
        }
        let mut bad = seal(3, b"payload");
        bad[22] ^= 4;
        assert_eq!(open_owned(bad, 3), Err(SnapshotError::ChecksumMismatch));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut sealed = seal(1, b"x");
        sealed.push(0);
        assert!(matches!(open(&sealed, 1), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn encoder_decoder_primitives_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_bool(true);
        e.put_bool(false);
        e.put_u8_slice(&[1, 2, 3]);
        e.put_u64_slice(&[u64::MAX, 0, 42]);
        e.put_u32_slice(&[9, 8]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u8_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.u64_slice().unwrap(), vec![u64::MAX, 0, 42]);
        assert_eq!(d.u32_slice().unwrap(), vec![9, 8]);
        d.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_short_reads_and_bad_bools() {
        let mut d = Decoder::new(&[1, 2]);
        assert_eq!(d.u64(), Err(SnapshotError::Truncated));
        let mut d = Decoder::new(&[9]);
        assert!(matches!(d.bool(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn corrupt_length_cannot_demand_more_than_remaining() {
        let mut e = Encoder::new();
        e.put_u64_slice(&[1, 2, 3]);
        let mut bytes = e.into_bytes();
        bytes[0] = 0xFF; // claim a huge element count
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.u64_slice(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn unconsumed_bytes_fail_finish() {
        let d = Decoder::new(&[1]);
        assert!(matches!(d.finish(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn sections_roundtrip_and_isolate() {
        let mut e = Encoder::new();
        e.put_section(|s| {
            s.put_u32(7);
            s.put_u8_slice(b"inner");
        });
        e.put_u64(99); // field after the section must stay aligned
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let mut s = d.section().unwrap();
        assert_eq!(s.u32().unwrap(), 7);
        assert_eq!(s.u8_slice().unwrap(), b"inner".to_vec());
        s.finish().unwrap();
        assert_eq!(d.u64().unwrap(), 99);
        d.finish().unwrap();
    }

    #[test]
    fn zero_length_section_is_valid_and_skippable() {
        let mut e = Encoder::new();
        e.put_section(|_| {});
        e.put_section(|s| s.put_u8(0xAB));
        e.put_u32(5);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let empty = d.section().unwrap();
        assert_eq!(empty.remaining(), 0);
        empty.finish().unwrap();
        // Skipping a section without reading it still advances past it.
        let _skipped = d.section().unwrap();
        assert_eq!(d.u32().unwrap(), 5);
        d.finish().unwrap();
    }

    #[test]
    fn section_underconsumption_fails_the_sub_decoder_only() {
        let mut e = Encoder::new();
        e.put_section(|s| s.put_u64(1));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let s = d.section().unwrap();
        // The sub-decoder catches the unread field; the outer decoder
        // already advanced past the whole section regardless.
        assert!(matches!(s.finish(), Err(SnapshotError::Malformed(_))));
        d.finish().unwrap();
    }

    #[test]
    fn corrupt_section_length_is_bounds_checked() {
        let mut e = Encoder::new();
        e.put_section(|s| s.put_u8(1));
        let mut bytes = e.into_bytes();
        bytes[0] = 0xFF; // claim a section far larger than the payload
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.section(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn truncated_section_length_prefix_is_detected() {
        let mut d = Decoder::new(&[0, 0, 0]);
        assert_eq!(d.section().err(), Some(SnapshotError::Truncated));
    }

    #[test]
    fn in_place_readers_fill_exactly_sized_buffers() {
        let mut e = Encoder::new();
        e.put_u8_slice(&[1, 2, 3]);
        e.put_u32_slice(&[9, 8]);
        e.put_u64_slice(&[u64::MAX, 0, 42]);
        e.put_u32_slice(&[5, 6, 7]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let (mut a, mut b, mut c) = ([0u8; 3], [0u32; 2], [0u64; 3]);
        d.u8_slice_into(&mut a).unwrap();
        d.u32_slice_into(&mut b).unwrap();
        d.u64_slice_into(&mut c).unwrap();
        let mut v = Vec::with_capacity(4);
        v.push(1);
        d.u32_vec_into(&mut v, 4).unwrap();
        d.finish().unwrap();
        assert_eq!((a, b, c), ([1, 2, 3], [9, 8], [u64::MAX, 0, 42]));
        assert_eq!(v, vec![5, 6, 7]);
    }

    /// Every in-place reader rejects a stored slice shorter or longer
    /// than its buffer, and one whose bytes were cut off.
    #[test]
    fn in_place_readers_reject_short_long_and_truncated_slices() {
        type Read = fn(&mut Decoder<'_>) -> Result<(), SnapshotError>;
        fn check(write: impl Fn(&mut Encoder, usize), read: Read) {
            for (len, what) in [(2, "short"), (4, "long")] {
                let mut e = Encoder::new();
                write(&mut e, len);
                let bytes = e.into_bytes();
                let got = read(&mut Decoder::new(&bytes));
                assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{what}: {got:?}");
            }
            let mut e = Encoder::new();
            write(&mut e, 3);
            let bytes = e.into_bytes();
            for cut in [4, 8, bytes.len() - 1] {
                let got = read(&mut Decoder::new(&bytes[..cut]));
                assert_eq!(got, Err(SnapshotError::Truncated), "cut at {cut}");
            }
        }
        check(|e, n| e.put_u8_slice(&vec![7; n]), |d| d.u8_slice_into(&mut [0; 3]));
        check(|e, n| e.put_u32_slice(&vec![7; n]), |d| d.u32_slice_into(&mut [0; 3]));
        check(|e, n| e.put_u64_slice(&vec![7; n]), |d| d.u64_slice_into(&mut [0; 3]));
        // The refilling reader takes any length up to its bound, so only
        // a slice longer than the bound is malformed.
        let mut v = vec![1, 2, 3, 4];
        let mut e = Encoder::new();
        e.put_u32_slice(&[7; 2]);
        e.put_u32_slice(&[7; 4]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.u32_vec_into(&mut v, 3).unwrap();
        assert_eq!(v, vec![7, 7]);
        assert!(matches!(d.u32_vec_into(&mut v, 3), Err(SnapshotError::Malformed(_))));
        let mut e = Encoder::new();
        e.put_u32_slice(&[7; 3]);
        let bytes = e.into_bytes();
        for cut in [4, 8, bytes.len() - 1] {
            let got = Decoder::new(&bytes[..cut]).u32_vec_into(&mut v, 3);
            assert_eq!(got, Err(SnapshotError::Truncated), "cut at {cut}");
        }
    }
}
