//! Versioned binary checkpoint codec for architectural state.
//!
//! The warm-up engine (`experiments::engine`) snapshots the complete
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
//!
//! Both ends also stream, so a container never has to be whole in memory.
//! [`seal_streamed`] encodes a payload straight into a writer, and
//! [`Decoder::stream`] decodes one straight from a reader; each holds one
//! [`CHUNK`] of payload at a time and folds the checksum as the bytes
//! pass. The bytes are those [`seal_into`] writes and [`open`] reads. A
//! streaming decoder meets the checksum only at [`Decoder::finish`], after
//! the owner has decoded every field into its target, so after any error
//! from a stream the target is half-written and must be discarded.

use std::fmt;
use std::io::{self, Read, Write};

/// Container magic: "SIMCHK" plus a two-byte layout revision.
pub const MAGIC: [u8; 8] = *b"SIMCHK\x00\x02";

/// Bytes of header ahead of the payload (magic + version + length).
const HEADER: usize = 8 + 4 + 8;

/// Bytes of framing around a payload (header + checksum).
pub const OVERHEAD: usize = HEADER + 16;

/// Payload bytes a streaming [`Encoder`] or [`Decoder`] holds at once.
pub const CHUNK: usize = 64 << 10;

/// Bytes per checksum stripe. Streams hand the lanes whole stripes, so
/// the fold is the one [`seal_into`] computes over the whole payload.
const STRIPE: usize = 32;

/// Why a snapshot failed to open or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the declared content did. A streaming
    /// decoder also reports a failed read this way.
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
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
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
    fn stripe(&mut self, s: &[u8; STRIPE]) {
        for (i, lane) in self.0.iter_mut().enumerate() {
            let word = u64::from_le_bytes(s[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            *lane = round(*lane, word);
        }
    }

    /// Absorbs `bytes` stripe by stripe, the tail zero-padded to a last
    /// stripe. Only the last piece of a section may end mid-stripe.
    fn absorb(&mut self, bytes: &[u8]) {
        let mut stripes = bytes.chunks_exact(STRIPE);
        for s in &mut stripes {
            self.stripe(s.try_into().expect("32 bytes"));
        }
        let tail = stripes.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; STRIPE];
            last[..tail.len()].copy_from_slice(tail);
            self.stripe(&last);
        }
    }

    /// The checksum of the `covered` bytes absorbed so far.
    fn digest(&self, covered: usize) -> [u8; 16] {
        let covered = covered as u64;
        let [a, b, c, d] = self.0;
        let lo = fold([a, b, c, d], covered);
        let hi = fold([d, c, b, a], covered ^ P3);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }
}

/// The container checksum of `header` followed by `payload`.
fn checksum(header: &[u8], payload: &[u8]) -> [u8; 16] {
    let mut lanes = Lanes::new();
    lanes.absorb(header);
    lanes.absorb(payload);
    lanes.digest(header.len() + payload.len())
}

/// The container header of a `len`-byte payload.
fn header(version: u32, len: usize) -> [u8; HEADER] {
    let mut header = [0u8; HEADER];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..].copy_from_slice(&(len as u64).to_le_bytes());
    header
}

/// Checks as much of a container's header as `bytes` holds and returns
/// the declared payload length. The checks are ordered so the most
/// informative error wins — a snapshot from an older codec reports
/// [`SnapshotError::VersionMismatch`], not a checksum failure.
fn parse_header(bytes: &[u8], expected_version: u32) -> Result<usize, SnapshotError> {
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
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: expected_version,
        });
    }
    let len = u64::from_le_bytes(bytes[12..HEADER].try_into().expect("8 bytes"));
    match usize::try_from(len).ok().and_then(|n| n.checked_add(OVERHEAD)) {
        Some(_) => Ok(len as usize),
        None => Err(SnapshotError::Malformed("payload length overflows")),
    }
}

/// Writes `payload` to `w` as a versioned, checksummed container,
/// without copying the payload into a sealed buffer first.
///
/// # Errors
///
/// Propagates the first write error.
pub fn seal_into(w: &mut impl Write, version: u32, payload: &[u8]) -> io::Result<()> {
    let header = header(version, payload.len());
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

/// Seals the payload `fill` encodes straight into `w`, holding at most
/// [`CHUNK`] payload bytes at once, and writes exactly what [`seal_into`]
/// writes for that payload. The header carries the payload length, so
/// `fill` runs twice: once to size the payload, once to write it. It must
/// encode the same bytes both times.
///
/// # Errors
///
/// Propagates the first write error, and fails with
/// [`io::ErrorKind::InvalidData`] if the two passes differ in length.
pub fn seal_streamed(
    w: &mut impl Write,
    version: u32,
    fill: impl Fn(&mut Encoder<'_>),
) -> io::Result<()> {
    let mut sizing = Encoder::chunked(Vec::with_capacity(CHUNK), None);
    fill(&mut sizing);
    let len = sizing.len();
    let mut buf = sizing.buf;
    buf.clear();

    let header = header(version, len);
    w.write_all(&header)?;
    let mut lanes = Lanes::new();
    lanes.absorb(&header);
    let mut e = Encoder::chunked(
        buf,
        Some(Sink {
            w,
            lanes,
            failed: None,
        }),
    );
    fill(&mut e);
    let written = e.len();
    e.spill_all();
    let Sink { lanes, failed, .. } = e.sink.take().expect("a sealing encoder keeps its sink");
    drop(e);
    if let Some(err) = failed {
        return Err(err);
    }
    if written != len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "the payload changed length between the sizing and the writing pass",
        ));
    }
    w.write_all(&lanes.digest(HEADER + len))
}

/// Validates a sealed container and returns its payload slice.
///
/// Checks, in order: magic, version, declared length against the actual
/// byte count, and the trailing checksum. The checks are ordered so the
/// most informative error wins — a snapshot from an older codec reports
/// [`SnapshotError::VersionMismatch`], not a checksum failure.
pub fn open(bytes: &[u8], expected_version: u32) -> Result<&[u8], SnapshotError> {
    let len = parse_header(bytes, expected_version)?;
    let total = len + OVERHEAD;
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

/// Where a sealing [`Encoder`] sends its payload: the writer, and the
/// checksum lanes folded over every byte handed to it.
struct Sink<'a> {
    w: &'a mut dyn Write,
    lanes: Lanes,
    /// The first write error; later writes are skipped.
    failed: Option<io::Error>,
}

impl Sink<'_> {
    fn write(&mut self, bytes: &[u8]) {
        self.lanes.absorb(bytes);
        if self.failed.is_none() {
            if let Err(err) = self.w.write_all(bytes) {
                self.failed = Some(err);
            }
        }
    }
}

/// Little-endian primitive writer for snapshot payloads.
///
/// [`Encoder::new`] collects the payload in memory. Inside
/// [`seal_streamed`] an encoder instead holds at most [`CHUNK`] bytes and
/// hands whole checksum stripes on to the writer as it fills.
pub struct Encoder<'a> {
    buf: Vec<u8>,
    /// Payload bytes handed on ahead of `buf`.
    spilled: usize,
    /// The most bytes `buf` holds: unbounded in memory, [`CHUNK`] when
    /// streaming.
    limit: usize,
    /// The writer of a sealing encoder; a sizing one has none and drops
    /// what it spills.
    sink: Option<Sink<'a>>,
}

impl fmt::Debug for Encoder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Encoder")
            .field("len", &self.len())
            .field("streaming", &(self.limit == CHUNK))
            .finish()
    }
}

impl Default for Encoder<'_> {
    fn default() -> Self {
        Encoder {
            buf: Vec::new(),
            spilled: 0,
            limit: usize::MAX,
            sink: None,
        }
    }
}

impl<'a> Encoder<'a> {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An encoder that holds at most [`CHUNK`] bytes in `buf`.
    fn chunked(buf: Vec<u8>, sink: Option<Sink<'a>>) -> Self {
        Encoder {
            buf,
            spilled: 0,
            limit: CHUNK,
            sink,
        }
    }

    /// The encoded payload of an in-memory encoder.
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert_eq!(self.spilled, 0, "a streaming encoder's payload is not in memory");
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.spilled + self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands every whole stripe in `buf` on, keeping the tail.
    #[cold]
    fn spill(&mut self) {
        let n = self.buf.len() / STRIPE * STRIPE;
        if let Some(sink) = &mut self.sink {
            sink.write(&self.buf[..n]);
        }
        self.spilled += n;
        self.buf.drain(..n);
    }

    /// Hands the whole buffer on, its tail as the payload's last stripe.
    fn spill_all(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.write(&self.buf);
        }
        self.spilled += self.buf.len();
        self.buf.clear();
    }

    /// Makes room for `n` more bytes (at most one stripe).
    #[inline(always)]
    fn reserve(&mut self, n: usize) {
        if self.buf.len() + n > self.limit {
            self.spill();
        }
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.reserve(1);
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.reserve(4);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.reserve(8);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a `usize` as a `u64` (platform-independent framing).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes `bytes` as they are, with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            if self.buf.len() == self.limit {
                self.spill();
            }
            let (now, later) = rest.split_at(rest.len().min(self.limit - self.buf.len()));
            self.buf.extend_from_slice(now);
            rest = later;
        }
    }

    /// Writes `vs` as `W`-byte words, as many at a time as the buffer
    /// holds: in memory, all of them at once.
    #[inline(always)]
    fn put_words<T: Copy, const W: usize>(&mut self, vs: &[T], le: impl Fn(T) -> [u8; W]) {
        let mut rest = vs;
        while !rest.is_empty() {
            let fit = (self.limit - self.buf.len()) / W;
            if fit == 0 {
                self.spill();
                continue;
            }
            let (now, later) = rest.split_at(fit.min(rest.len()));
            let start = self.buf.len();
            self.buf.resize(start + now.len() * W, 0);
            for (out, &v) in self.buf[start..].chunks_exact_mut(W).zip(now) {
                out.copy_from_slice(&le(v));
            }
            rest = later;
        }
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_u8_slice(&mut self, vs: &[u8]) {
        self.put_len(vs.len());
        self.put_bytes(vs);
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_len(vs.len());
        self.put_words(vs, u64::to_le_bytes);
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_len(vs.len());
        self.put_words(vs, u32::to_le_bytes);
    }

    /// Writes a length-prefixed `u64` slice of values kept narrower in
    /// memory: `widen` gives each element's stored word, so the bytes are
    /// those [`Encoder::put_u64_slice`] writes for the widened slice.
    pub fn put_widened_u64_slice<T: Copy>(&mut self, vs: &[T], widen: impl Fn(T) -> u64) {
        self.put_len(vs.len());
        self.put_words(vs, |v| widen(v).to_le_bytes());
    }

    /// Writes a length-prefixed *section*: `fill` populates a nested
    /// encoder, and the nested byte count is framed ahead of its bytes.
    /// A reader that knows the section's layout sub-decodes it with
    /// [`Decoder::section`]; one that doesn't can still skip it, which
    /// is what lets a snapshot owner append optional trailing sections
    /// without breaking older readers. An empty `fill` writes a valid
    /// zero-length section (just the 8-byte length prefix). The nested
    /// encoder is in memory, so a section is held whole while it is built.
    pub fn put_section(&mut self, fill: impl FnOnce(&mut Encoder<'_>)) {
        let mut inner = Encoder::new();
        fill(&mut inner);
        self.put_u8_slice(&inner.buf);
    }
}

/// A container read through one chunk: the payload bytes buffered in
/// `buf[pos..end]`, `unread` more behind them in the reader, and the
/// checksum folded over every byte read so far.
struct Stream<'a> {
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
    unread: usize,
    /// The reader and its envelope; `None` for a section copied out of a
    /// stream, whose bytes are all in `buf`.
    src: Option<Source<'a>>,
}

struct Source<'a> {
    r: &'a mut dyn Read,
    lanes: Lanes,
    /// Header and payload bytes the checksum covers.
    covered: usize,
}

impl<'a> Stream<'a> {
    /// Buffers at least `n` bytes (at most one stripe), moving the
    /// unconsumed ones to the front and reading whole stripes behind them.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, n: usize) -> Result<(), SnapshotError> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        let src = match &mut self.src {
            Some(src) if self.unread > 0 => src,
            _ => return Err(SnapshotError::Truncated),
        };
        let room = (self.buf.len() - self.end) / STRIPE * STRIPE;
        let got = &mut self.buf[self.end..self.end + room.min(self.unread)];
        src.r.read_exact(got).map_err(|_| SnapshotError::Truncated)?;
        src.lanes.absorb(got);
        self.end += got.len();
        self.unread -= got.len();
        if self.end < n {
            return Err(SnapshotError::Truncated);
        }
        Ok(())
    }

    /// The next `N` bytes, if they are buffered.
    #[inline(always)]
    fn buffered<const N: usize>(&mut self) -> Option<[u8; N]> {
        let head = *self.buf[self.pos..self.end].first_chunk::<N>()?;
        self.pos += N;
        Some(head)
    }

    /// The next run of at most `max` bytes: at least `w` of them, and a
    /// multiple of `w`.
    fn window(&mut self, max: usize, w: usize) -> Result<&[u8], SnapshotError> {
        if self.end - self.pos < w {
            self.fill(w)?;
        }
        let n = max.min((self.end - self.pos) / w * w);
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn remaining(&self) -> usize {
        self.end - self.pos + self.unread
    }

    /// Fails unless the payload was consumed exactly; then checks the
    /// stored checksum and that nothing follows it.
    fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed("unconsumed payload bytes"));
        }
        let Some(src) = self.src else { return Ok(()) };
        let mut stored = [0u8; 16];
        src.r.read_exact(&mut stored).map_err(|_| SnapshotError::Truncated)?;
        if src.lanes.digest(src.covered) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut probe = [0u8; 1];
        loop {
            return match src.r.read(&mut probe) {
                Ok(0) => Ok(()),
                Ok(_) => Err(SnapshotError::Malformed("trailing bytes after checksum")),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => Err(SnapshotError::Truncated),
            };
        }
    }
}

/// Bounds-checked little-endian reader over a snapshot payload.
///
/// [`Decoder::new`] reads a payload slice in memory. [`Decoder::stream`]
/// reads a whole container from a reader through one [`CHUNK`]: reads of
/// bytes already buffered take the fast path, and only a read that runs
/// past the buffer refills it.
pub struct Decoder<'a> {
    /// The unread payload of a slice decoder; empty when streaming.
    bytes: &'a [u8],
    stream: Option<Stream<'a>>,
}

impl fmt::Debug for Decoder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decoder")
            .field("remaining", &self.remaining())
            .field("streaming", &self.stream.is_some())
            .finish()
    }
}

impl<'a> Decoder<'a> {
    /// A decoder over `bytes` (typically the slice [`open`] returned).
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder {
            bytes,
            stream: None,
        }
    }

    /// A decoder over the payload of the container `r` reads, through one
    /// [`CHUNK`]-byte buffer (its only allocation). The header is checked
    /// here as [`open`] checks it; the checksum and the end of the
    /// container are checked by [`Decoder::finish`], so after any error
    /// the target the payload was decoded into is half-written.
    ///
    /// # Errors
    ///
    /// `BadMagic`, `VersionMismatch`, `Truncated` or `Malformed` for a
    /// header that [`open`] would refuse.
    pub fn stream<R: Read>(r: &'a mut R, expected_version: u32) -> Result<Self, SnapshotError> {
        let mut header = [0u8; HEADER];
        let mut got = 0;
        while got < HEADER {
            match r.read(&mut header[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(SnapshotError::Truncated),
            }
        }
        let len = parse_header(&header[..got], expected_version)?;
        let mut lanes = Lanes::new();
        lanes.absorb(&header);
        Ok(Decoder {
            bytes: &[],
            stream: Some(Stream {
                buf: vec![0; CHUNK].into_boxed_slice(),
                pos: 0,
                end: 0,
                unread: len,
                src: Some(Source {
                    r,
                    lanes,
                    covered: HEADER + len,
                }),
            }),
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() + self.stream.as_ref().map_or(0, Stream::remaining)
    }

    /// Fails unless every byte was consumed — catches payload/decoder
    /// drift that would otherwise misalign every later field. A streaming
    /// decoder then checks the container's checksum and end.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if !self.bytes.is_empty() {
            return Err(SnapshotError::Malformed("unconsumed payload bytes"));
        }
        self.stream.map_or(Ok(()), Stream::finish)
    }

    /// The next `n` bytes of a slice decoder.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// The next `N` bytes, converted by `from`. Bytes already in memory,
    /// in the slice or in the stream's chunk, are read without a call, so
    /// a read that needs no refill keeps no stack frame.
    #[inline(always)]
    fn read<T, const N: usize>(&mut self, from: impl Fn([u8; N]) -> T) -> Result<T, SnapshotError> {
        if let Some((head, tail)) = self.bytes.split_first_chunk::<N>() {
            self.bytes = tail;
            return Ok(from(*head));
        }
        if let Some(head) = self.stream.as_mut().and_then(Stream::buffered) {
            return Ok(from(head));
        }
        self.refill_read(from)
    }

    /// [`Decoder::read`] once the buffered bytes run out: refills a
    /// stream's chunk, or fails a slice decoder.
    #[cold]
    #[inline(never)]
    fn refill_read<T, const N: usize>(
        &mut self,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<T, SnapshotError> {
        let s = self.stream.as_mut().ok_or(SnapshotError::Truncated)?;
        s.fill(N)?;
        Ok(from(s.buffered().expect("just filled")))
    }

    /// The next run of at most `max` bytes, a multiple of `w`: all `max`
    /// at once from a slice, the buffered part of them from a stream.
    #[inline]
    fn window(&mut self, max: usize, w: usize) -> Result<&[u8], SnapshotError> {
        if self.stream.is_none() {
            return self.take(max);
        }
        self.stream.as_mut().expect("a streaming decoder").window(max, w)
    }

    /// Decodes `dst.len()` little-endian `W`-byte words into `dst`.
    #[inline(always)]
    fn words_into<T, const W: usize>(
        &mut self,
        dst: &mut [T],
        mut from: impl FnMut([u8; W]) -> T,
    ) -> Result<(), SnapshotError> {
        let mut done = 0;
        while done < dst.len() {
            let src = self.window((dst.len() - done) * W, W)?;
            let n = src.len() / W;
            for (v, b) in dst[done..done + n].iter_mut().zip(src.chunks_exact(W)) {
                *v = from(b.try_into().expect("W bytes"));
            }
            done += n;
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        self.read(|[b]: [u8; 1]| b)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.read(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.read(u64::from_le_bytes)
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
        if v > self.remaining() as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        Ok(v as usize)
    }

    /// Reads `dst.len()` bytes as they are, with no length prefix.
    pub fn bytes_into(&mut self, dst: &mut [u8]) -> Result<(), SnapshotError> {
        let mut done = 0;
        while done < dst.len() {
            let src = self.window(dst.len() - done, 1)?;
            dst[done..done + src.len()].copy_from_slice(src);
            done += src.len();
        }
        Ok(())
    }

    /// Consumes `n` bytes unread (a streaming decoder still folds them
    /// into the checksum).
    pub fn skip(&mut self, n: usize) -> Result<(), SnapshotError> {
        let mut left = n;
        while left > 0 {
            left -= self.window(left, 1)?.len();
        }
        Ok(())
    }

    /// Reads a length-prefixed byte slice.
    pub fn u8_slice(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let mut v = vec![0; self.len()?];
        self.bytes_into(&mut v)?;
        Ok(v)
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.u64()?;
        if n > (self.remaining() / 8) as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        let mut v = vec![0; n as usize];
        self.words_into(&mut v, u64::from_le_bytes)?;
        Ok(v)
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.u64()?;
        if n > (self.remaining() / 4) as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        let mut v = vec![0; n as usize];
        self.words_into(&mut v, u32::from_le_bytes)?;
        Ok(v)
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
        self.bytes_into(dst)
    }

    /// Reads a length-prefixed `u32` slice into `dst`, which must have the
    /// stored length.
    pub fn u32_slice_into(&mut self, dst: &mut [u32]) -> Result<(), SnapshotError> {
        self.slice_len(dst.len())?;
        self.words_into(dst, u32::from_le_bytes)
    }

    /// Reads a length-prefixed `u64` slice into `dst`, which must have the
    /// stored length.
    pub fn u64_slice_into(&mut self, dst: &mut [u64]) -> Result<(), SnapshotError> {
        self.slice_len(dst.len())?;
        self.words_into(dst, u64::from_le_bytes)
    }

    /// Reads a slice written by [`Encoder::put_widened_u64_slice`] into
    /// `dst`, which must have the stored length: `narrow` converts each
    /// stored word, and a word that `widen` does not give back from its
    /// narrowed value makes the slice [`SnapshotError::Malformed`]. So
    /// every slice read re-encodes to the same bytes.
    pub fn narrowed_u64_slice_into<T: Copy>(
        &mut self,
        dst: &mut [T],
        narrow: impl Fn(u64) -> T,
        widen: impl Fn(T) -> u64,
    ) -> Result<(), SnapshotError> {
        self.slice_len(dst.len())?;
        let mut lost = 0;
        self.words_into(dst, |b| {
            let word = u64::from_le_bytes(b);
            let v = narrow(word);
            lost |= widen(v) ^ word;
            v
        })?;
        if lost != 0 {
            return Err(SnapshotError::Malformed("stored word does not fit its narrower field"));
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
        dst.clear();
        dst.resize(n as usize, 0);
        self.words_into(dst, u32::from_le_bytes)
    }

    /// Reads a section written by [`Encoder::put_section`], returning a
    /// sub-decoder over exactly the section's bytes. The outer decoder
    /// advances past the whole section, so calling this and ignoring
    /// the result *skips* it. A zero-length section yields an empty
    /// sub-decoder whose [`Decoder::finish`] succeeds immediately; the
    /// length prefix is bounds-checked like every other length, so a
    /// corrupt prefix fails here rather than overrunning the payload.
    /// A streaming decoder copies the section out of its stream.
    pub fn section(&mut self) -> Result<Decoder<'a>, SnapshotError> {
        let n = self.len()?;
        if self.stream.is_none() {
            return Ok(Decoder::new(self.take(n)?));
        }
        let mut held = vec![0; n];
        self.bytes_into(&mut held)?;
        Ok(Decoder {
            bytes: &[],
            stream: Some(Stream {
                buf: held.into_boxed_slice(),
                pos: 0,
                end: n,
                unread: 0,
                src: None,
            }),
        })
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
            Err(SnapshotError::VersionMismatch {
                found: 2,
                expected: 5
            })
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

    /// A widened slice is written as the `u64` slice of its widened
    /// values, and a narrowing read gives them back, in memory and through
    /// a stream that ends mid-word; a word that does not survive the
    /// narrowing is malformed.
    #[test]
    fn widened_slices_round_trip_and_lossy_words_fail() {
        let narrow = |w: u64| w as u32;
        let vs: Vec<u32> = (0..20_000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut e = Encoder::new();
        e.put_widened_u64_slice(&vs, u64::from);
        let bytes = e.into_bytes();
        let mut wide = Encoder::new();
        wide.put_u64_slice(&vs.iter().map(|&v| u64::from(v)).collect::<Vec<_>>());
        assert_eq!(bytes, wide.into_bytes());
        let mut back = vec![0u32; vs.len()];
        let mut d = Decoder::new(&bytes);
        d.narrowed_u64_slice_into(&mut back, narrow, u64::from).unwrap();
        d.finish().unwrap();
        assert_eq!(back, vs);
        let sealed = seal(3, &bytes);
        let mut src = Trickle {
            bytes: &sealed,
            step: 5,
        };
        let mut d = Decoder::stream(&mut src, 3).unwrap();
        back.fill(0);
        d.narrowed_u64_slice_into(&mut back, narrow, u64::from).unwrap();
        d.finish().unwrap();
        assert_eq!(back, vs);

        let mut e = Encoder::new();
        e.put_u64_slice(&[1, 2, 1 << 32]);
        let bytes = e.into_bytes();
        let got = Decoder::new(&bytes).narrowed_u64_slice_into(&mut [0u32; 3], narrow, u64::from);
        assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{got:?}");
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
        check(
            |e, n| e.put_u64_slice(&vec![7; n]),
            |d| d.narrowed_u64_slice_into(&mut [0u32; 3], |w| w as u32, u64::from),
        );
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

    /// A payload of `n` bytes that no shifted copy of itself matches.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + i / 251 + 11) as u8).collect()
    }

    /// Decodes the whole payload of a streamed container byte by byte, so
    /// a corrupt length cannot size an allocation.
    fn stream_open(mut sealed: &[u8], version: u32) -> Result<Vec<u8>, SnapshotError> {
        let mut d = Decoder::stream(&mut sealed, version)?;
        let mut payload = Vec::new();
        while d.remaining() > 0 {
            payload.push(d.u8()?);
        }
        d.finish()?;
        Ok(payload)
    }

    /// A streamed publish writes exactly the container `seal_into` writes,
    /// at sizes around a stripe and around a chunk, whether the payload
    /// arrives as one run of bytes or as words that straddle the chunk.
    #[test]
    fn streamed_seal_writes_what_seal_into_writes() {
        for n in [0, 1, 31, 32, 33, CHUNK - 1, CHUNK, CHUNK + 1] {
            let payload = pattern(n);
            let mut out = Vec::new();
            seal_streamed(&mut out, 7, |e| e.put_bytes(&payload)).unwrap();
            assert_eq!(out, seal(7, &payload), "{n} bytes");
            assert_eq!(stream_open(&out, 7), Ok(payload), "{n} bytes read back");
        }
        let fill = |e: &mut Encoder<'_>| {
            e.put_u8(3);
            e.put_u64_slice(&(0..9_000u64).map(|i| i * 0x9E37_79B9).collect::<Vec<_>>());
            e.put_bool(true);
            e.put_u32_slice(&(0..20_000u32).collect::<Vec<_>>());
            e.put_section(|s| s.put_u8_slice(&pattern(70_000)));
            e.put_u64(u64::MAX);
        };
        let mut whole = Encoder::new();
        fill(&mut whole);
        let mut out = Vec::new();
        seal_streamed(&mut out, 7, fill).unwrap();
        assert_eq!(out, seal(7, &whole.into_bytes()));
    }

    /// A fill that encodes a different length the second time is refused.
    #[test]
    fn streamed_seal_refuses_a_payload_that_changes_length() {
        let passes = std::cell::Cell::new(0);
        let got = seal_streamed(&mut Vec::new(), 1, |e| {
            passes.set(passes.get() + 1);
            e.put_bytes(&vec![0; passes.get()]);
        });
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    /// Hands out at most `step` bytes per read, so reads end mid-word.
    struct Trickle<'b> {
        bytes: &'b [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The streaming decoder reads exactly what the slice decoder reads:
    /// every reader, words and slices split across chunk refills, a
    /// section copied out of the stream, and reads that come back short.
    #[test]
    fn streaming_decoder_reads_what_the_slice_decoder_reads() {
        let big: Vec<u64> = (0..20_000u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D)).collect();
        let mut e = Encoder::new();
        e.put_u8(9);
        e.put_u64_slice(&big);
        e.put_u32(0xDEAD_BEEF);
        e.put_u8_slice(&pattern(CHUNK + 5));
        e.put_bool(false);
        e.put_u32_slice(&(0..30_000u32).rev().collect::<Vec<_>>());
        e.put_section(|s| {
            s.put_u64(42);
            s.put_u8_slice(&pattern(100));
        });
        e.put_u32_slice(&[4, 5, 6]);
        e.put_u64(7);
        let payload = e.into_bytes();
        let sealed = seal(5, &payload);

        type Read = (u8, Vec<u64>, u32, Vec<u8>, bool, Vec<u32>, u64, Vec<u8>, Vec<u32>, u64);
        let read = |d: &mut Decoder<'_>| -> Result<Read, SnapshotError> {
            let a = d.u8()?;
            let mut b = vec![0; big.len()];
            d.u64_slice_into(&mut b)?;
            let c = d.u32()?;
            let bytes = d.u8_slice()?;
            let flag = d.bool()?;
            let words = d.u32_slice()?;
            let mut s = d.section()?;
            let (s64, s8) = (s.u64()?, s.u8_slice()?);
            s.finish()?;
            let mut v = Vec::new();
            d.u32_vec_into(&mut v, 3)?;
            Ok((a, b, c, bytes, flag, words, s64, s8, v, d.u64()?))
        };
        let mut slice = Decoder::new(&payload);
        let want = read(&mut slice).unwrap();
        slice.finish().unwrap();
        for step in [usize::MAX, 7, 4_099] {
            let mut src = Trickle {
                bytes: &sealed,
                step,
            };
            let mut d = Decoder::stream(&mut src, 5).unwrap();
            assert_eq!(d.remaining(), payload.len());
            assert_eq!(read(&mut d).unwrap(), want, "reads of {step} bytes");
            d.finish().unwrap();
        }
    }

    /// Every damaged container fails to stream: a cut at every point, a
    /// flipped byte at every offset, version skew, and trailing bytes.
    #[test]
    fn every_damaged_container_fails_to_stream() {
        let payload = pattern(267);
        let sealed = seal(9, &payload);
        assert_eq!(stream_open(&sealed, 9), Ok(payload));
        for cut in 0..sealed.len() {
            assert!(stream_open(&sealed[..cut], 9).is_err(), "cut at {cut} streamed");
        }
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x5A;
            assert!(stream_open(&bad, 9).is_err(), "flipping byte {at} streamed");
        }
        assert_eq!(
            stream_open(&sealed, 8),
            Err(SnapshotError::VersionMismatch {
                found: 9,
                expected: 8
            })
        );
        let mut long = sealed.clone();
        long.push(0);
        assert_eq!(
            stream_open(&long, 9),
            Err(SnapshotError::Malformed("trailing bytes after checksum"))
        );
        // A payload past one chunk fails at cuts and flips on both sides
        // of every refill.
        let sealed = seal(9, &pattern(2 * CHUNK + 100));
        for at in [
            0,
            19,
            20,
            21,
            CHUNK,
            CHUNK + 20,
            CHUNK + 21,
            2 * CHUNK + 40,
            sealed.len() - 1,
        ] {
            assert!(stream_open(&sealed[..at], 9).is_err(), "cut at {at} streamed");
            let mut bad = sealed.clone();
            bad[at] ^= 1;
            assert!(stream_open(&bad, 9).is_err(), "flipping byte {at} streamed");
        }
    }

    /// A payload the decoder does not consume fails `finish` before the
    /// checksum is read, as with a slice.
    #[test]
    fn streaming_finish_requires_the_whole_payload() {
        let sealed = seal(1, &pattern(40));
        let mut src = &sealed[..];
        let mut d = Decoder::stream(&mut src, 1).unwrap();
        d.skip(39).unwrap();
        assert_eq!(d.finish(), Err(SnapshotError::Malformed("unconsumed payload bytes")));
    }
}
