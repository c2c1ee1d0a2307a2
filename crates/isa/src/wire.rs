//! Minimal little-endian byte codec for on-disk artifact serialization.
//!
//! The experiment harness persists memoized preparation artifacts
//! (selections, rewritten images, trace prefixes) under `target/mg-cache/`
//! (see `mg-harness::prep_cache`). The workspace deliberately carries no
//! serialization dependency, so this module provides the small, totally
//! explicit codec those artifacts use: fixed-width little-endian scalars,
//! length-prefixed sequences, and one-byte tags for enums.
//!
//! Compatibility is handled a level up: cache files embed a fingerprint
//! of everything the artifact depends on (format version, opcode set,
//! program image, workload registry version), and any mismatch or decode
//! error is treated as a cache miss. The codec therefore never needs to
//! be backward compatible — it only needs to be deterministic and to fail
//! loudly ([`WireError`]) on foreign bytes.
//!
//! [`Opcode`]s are encoded as their declaration index in [`Opcode::ALL`];
//! the opcode-set fingerprint ([`opcode_fingerprint`]) keyed into every
//! cache file invalidates stale indices when the instruction set changes.
//!
//! Two hashes live here. Byte-wise FNV-1a ([`fnv1a`]) names cache files,
//! hashes cache keys, places keys on the cluster ring, and seeds fault
//! plans; the word-wide [`fnv1a_words`] is the bulk checksum (cache-file
//! trailers, memory-image content hashes), eight bytes per step.

use crate::handle::{HandleCatalog, MgTemplate, TmplInst, TmplOperand};
use crate::inst::{Inst, Operand};
use crate::opcode::Opcode;
use crate::program::Program;
use crate::reg::{reg, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// A decode failure: the bytes are not a valid encoding of the requested
/// type. Cache readers treat any `WireError` as a miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A scalar was out of its legal range (e.g. an opcode index past
    /// [`Opcode::ALL`], a register index ≥ 32, or an oversized length).
    BadValue,
    /// A string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated input"),
            WireError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            WireError::BadValue => f.write_str("value out of range"),
            WireError::BadUtf8 => f.write_str("invalid UTF-8 in string"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sequence lengths above this are rejected as corrupt rather than
/// allocated (a damaged length prefix must not trigger a huge reserve).
const MAX_SEQ_LEN: u64 = 1 << 32;

/// An append-only byte sink for encoding.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A cursor over encoded bytes for decoding.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes (no length prefix) as one borrowed slice: the
    /// bulk path for fixed-width columns.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.raw(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.raw(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.raw(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.raw(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a sequence length written by [`Writer::u64`], bounds-checked.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > MAX_SEQ_LEN {
            return Err(WireError::BadValue);
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.seq_len()?;
        let bytes = self.raw(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// A type with a deterministic byte encoding.
///
/// Encodings are self-delimiting (fixed width or length-prefixed), so
/// values compose by concatenation: `Vec<T>`, `Option<T>`, and product
/// types need no framing of their own.
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn put(&self, w: &mut Writer);

    /// Decodes one value from `r`, advancing it.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] if the bytes are not a valid encoding.
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes `value` into a fresh byte vector.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.into_bytes()
}

/// Decodes a `T` from `bytes`, requiring every byte to be consumed.
///
/// # Errors
///
/// Any [`WireError`], including [`WireError::BadValue`] for trailing
/// garbage.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = T::take(&mut r)?;
    if !r.is_exhausted() {
        return Err(WireError::BadValue);
    }
    Ok(v)
}

impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut Writer) {
        w.u32(*self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for i64 {
    fn put(&self, w: &mut Writer) {
        w.i64(*self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.i64()
    }
}

impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| WireError::BadValue)
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.put(w);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len()?;
        // Reserve conservatively: a corrupt length fails on read, not on
        // allocation.
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

impl Wire for Reg {
    fn put(&self, w: &mut Writer) {
        w.u8(self.index() as u8);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let i = r.u8()?;
        if i >= 32 {
            return Err(WireError::BadValue);
        }
        Ok(reg(i))
    }
}

impl Wire for Opcode {
    fn put(&self, w: &mut Writer) {
        let idx =
            Opcode::ALL.iter().position(|&o| o == *self).expect("opcode in declaration list");
        w.u8(idx as u8);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let i = r.u8()? as usize;
        Opcode::ALL.get(i).copied().ok_or(WireError::BadValue)
    }
}

impl Wire for Operand {
    fn put(&self, w: &mut Writer) {
        match self {
            Operand::Reg(r) => {
                w.u8(0);
                r.put(w);
            }
            Operand::Imm(v) => {
                w.u8(1);
                w.i64(*v);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Operand::Reg(Reg::take(r)?)),
            1 => Ok(Operand::Imm(r.i64()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Inst {
    fn put(&self, w: &mut Writer) {
        self.op.put(w);
        self.ra.put(w);
        self.rb.put(w);
        self.rc.put(w);
        w.i64(self.disp);
        w.i64(self.aux);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Inst {
            op: Opcode::take(r)?,
            ra: Reg::take(r)?,
            rb: Operand::take(r)?,
            rc: Reg::take(r)?,
            disp: r.i64()?,
            aux: r.i64()?,
        })
    }
}

impl Wire for Program {
    fn put(&self, w: &mut Writer) {
        self.insts.put(w);
        self.entry.put(w);
        w.u64(self.labels.len() as u64);
        for (name, &idx) in &self.labels {
            w.str(name);
            idx.put(w);
        }
        w.u64(self.base_addr);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let insts = Vec::<Inst>::take(r)?;
        let entry = usize::take(r)?;
        let n = r.seq_len()?;
        let mut labels = BTreeMap::new();
        for _ in 0..n {
            let name = r.str()?;
            let idx = usize::take(r)?;
            labels.insert(name, idx);
        }
        let base_addr = r.u64()?;
        Ok(Program { insts, entry, labels, base_addr })
    }
}

impl Wire for TmplOperand {
    fn put(&self, w: &mut Writer) {
        match self {
            TmplOperand::E0 => w.u8(0),
            TmplOperand::E1 => w.u8(1),
            TmplOperand::M(i) => {
                w.u8(2);
                w.u8(*i);
            }
            TmplOperand::Imm(v) => {
                w.u8(3);
                w.i64(*v);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(TmplOperand::E0),
            1 => Ok(TmplOperand::E1),
            2 => Ok(TmplOperand::M(r.u8()?)),
            3 => Ok(TmplOperand::Imm(r.i64()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for TmplInst {
    fn put(&self, w: &mut Writer) {
        self.op.put(w);
        self.a.put(w);
        self.b.put(w);
        w.i64(self.disp);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TmplInst {
            op: Opcode::take(r)?,
            a: TmplOperand::take(r)?,
            b: TmplOperand::take(r)?,
            disp: r.i64()?,
        })
    }
}

impl Wire for MgTemplate {
    fn put(&self, w: &mut Writer) {
        self.ops.put(w);
        self.out.put(w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MgTemplate { ops: Vec::take(r)?, out: Wire::take(r)? })
    }
}

impl Wire for HandleCatalog {
    fn put(&self, w: &mut Writer) {
        let templates: Vec<MgTemplate> = self.iter().map(|(_, t)| t.clone()).collect();
        templates.put(w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let templates = Vec::<MgTemplate>::take(r)?;
        let mut c = HandleCatalog::new();
        for t in templates {
            c.add(t);
        }
        Ok(c)
    }
}

/// Magic bytes opening every stream frame (see [`write_frame`]).
pub const FRAME_MAGIC: &[u8; 4] = b"MGF\x01";

/// Frames longer than this are rejected as corrupt rather than read (a
/// damaged or hostile length prefix must not trigger a huge allocation).
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// Writes one length-delimited frame to a byte stream: [`FRAME_MAGIC`],
/// a little-endian `u32` payload length, then the [`Wire`] encoding of
/// `value`. Frames are self-delimiting, so a stream of frames needs no
/// other synchronization; `mg-serve` uses them as its request/response
/// transport.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidData`] if the encoded payload exceeds
/// [`MAX_FRAME_LEN`] (nothing is written to the stream in that case),
/// plus any I/O error from the underlying stream.
pub fn write_frame<T: Wire>(out: &mut impl std::io::Write, value: &T) -> std::io::Result<()> {
    let payload = to_bytes(value);
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame payload of {} bytes exceeds {MAX_FRAME_LEN}", payload.len()),
        ));
    }
    out.write_all(FRAME_MAGIC)?;
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&payload)?;
    out.flush()
}

/// Reads one frame written by [`write_frame`] and decodes its payload.
///
/// # Errors
///
/// * [`std::io::ErrorKind::UnexpectedEof`] if the stream ends mid-frame;
/// * [`std::io::ErrorKind::InvalidData`] on bad magic, an oversized
///   length, or a payload that is not a valid [`Wire`] encoding of `T`
///   (including trailing bytes).
pub fn read_frame<T: Wire>(input: &mut impl std::io::Read) -> std::io::Result<T> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut head = [0u8; 8];
    input.read_exact(&mut head)?;
    if &head[..4] != FRAME_MAGIC {
        return Err(bad(format!("bad frame magic {:02x?}", &head[..4])));
    }
    let len = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(bad(format!("frame length {len} exceeds {MAX_FRAME_LEN}")));
    }
    let mut payload = vec![0u8; len as usize];
    input.read_exact(&mut payload)?;
    from_bytes(&payload).map_err(|e| bad(format!("bad frame payload: {e}")))
}

/// The FNV-1a 64-bit offset basis (the hash of the empty string).
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash — the workspace's stand-in for a content hash in
/// cache keys and fingerprints (not cryptographic; collisions are guarded
/// by storing the full key in each cache file).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET_BASIS, bytes)
}

/// Folds `bytes` into a running FNV-1a state (`fnv1a(x) ==
/// fnv1a_extend(FNV_OFFSET_BASIS, x)`); lets large inputs hash
/// incrementally without concatenation.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-wide FNV-style hash: the checksum trailer of every artifact-cache
/// file and the page fold of [`Memory::content_hash`](crate::Memory::content_hash).
/// `fnv1a_words(x) == fnv1a_words_extend(FNV_OFFSET_BASIS, x)`.
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    fnv1a_words_extend(FNV_OFFSET_BASIS, bytes)
}

/// Folds `bytes` into a running word-wide hash state.
///
/// 32-byte blocks feed four independent lanes (one little-endian `u64`
/// each), so the multiply chains overlap instead of serialising; the
/// lanes then fold into the state, followed by any remaining whole words
/// and, byte by byte ([`fnv1a_extend`]), the sub-word tail. Each step
/// — xor a word, multiply by the FNV prime, xor-shift the high half down
/// — is a bijection of the state, so changing any single input word (in
/// particular, flipping any one bit) always changes the result, and the
/// xor-shift carries high-bit differences into the low bits the next
/// multiply spreads upward again.
///
/// Not cryptographic, and deliberately distinct from [`fnv1a`], which
/// keeps naming cache files, placing keys on the cluster ring, and
/// seeding fault plans.
pub fn fnv1a_words_extend(h: u64, bytes: &[u8]) -> u64 {
    #[inline(always)]
    fn step(h: u64, w: u64) -> u64 {
        let h = (h ^ w).wrapping_mul(FNV_PRIME);
        h ^ (h >> 32)
    }
    #[inline(always)]
    fn word(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
    }
    let mut lanes = [h, h ^ 1, h ^ 2, h ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word(&b[8 * i..8 * i + 8]));
        }
    }
    let mut h = lanes.into_iter().fold(h, step);
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w));
    }
    fnv1a_extend(h, words.remainder())
}

/// A fingerprint of the instruction set: hashes every mnemonic in
/// declaration order, so any opcode addition, removal, or reorder changes
/// it (and with it every cache key that embeds it).
pub fn opcode_fingerprint() -> u64 {
    let mut w = Writer::new();
    for op in Opcode::ALL {
        w.str(op.mnemonic());
    }
    fnv1a(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Asm;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("round trip decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&0u8);
        round_trip(&u32::MAX);
        round_trip(&u64::MAX);
        round_trip(&i64::MIN);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&String::from("mg-cache"));
        round_trip(&Some(42u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u32, 2, 3]);
    }

    #[test]
    fn isa_types_round_trip() {
        round_trip(&reg(17));
        for &op in Opcode::ALL {
            round_trip(&op);
        }
        round_trip(&Operand::Reg(reg(4)));
        round_trip(&Operand::Imm(-12345));
        round_trip(&Inst::handle(reg(1), reg(2), reg(3), 99, Some(7)));
    }

    #[test]
    fn program_round_trips_with_labels() {
        let mut a = Asm::new();
        a.li(reg(1), 5);
        a.label("loop");
        a.subq(reg(1), 1, reg(1));
        a.bne(reg(1), "loop");
        a.halt();
        let p = a.finish().unwrap();
        let bytes = to_bytes(&p);
        let back: Program = from_bytes(&bytes).expect("program decodes");
        assert_eq!(back.insts, p.insts);
        assert_eq!(back.entry, p.entry);
        assert_eq!(back.labels, p.labels);
        assert_eq!(back.base_addr, p.base_addr);
    }

    #[test]
    fn template_and_catalog_round_trip() {
        let t = MgTemplate {
            ops: vec![
                TmplInst {
                    op: Opcode::Addl,
                    a: TmplOperand::E0,
                    b: TmplOperand::Imm(2),
                    disp: 0,
                },
                TmplInst {
                    op: Opcode::Cmplt,
                    a: TmplOperand::M(0),
                    b: TmplOperand::E1,
                    disp: 0,
                },
            ],
            out: Some(1),
        };
        round_trip(&t);
        let mut c = HandleCatalog::new();
        c.add(t.clone());
        c.add(MgTemplate { ops: vec![], out: None });
        let bytes = to_bytes(&c);
        let back: HandleCatalog = from_bytes(&bytes).expect("catalog decodes");
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(0), Some(&t));
    }

    #[test]
    fn corrupt_bytes_fail_loudly() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        assert_eq!(
            from_bytes::<Vec<u64>>(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
        assert!(from_bytes::<Opcode>(&[250]).is_err());
        assert_eq!(from_bytes::<bool>(&[9]), Err(WireError::BadTag(9)));
        // Trailing garbage is an error, not silently ignored.
        let mut long = to_bytes(&7u64);
        long.push(0);
        assert_eq!(from_bytes::<u64>(&long), Err(WireError::BadValue));
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &String::from("hello")).unwrap();
        write_frame(&mut buf, &vec![1u64, 2, 3]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame::<String>(&mut r).unwrap(), "hello");
        assert_eq!(read_frame::<Vec<u64>>(&mut r).unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty(), "frames are self-delimiting");
    }

    #[test]
    fn corrupt_frames_fail_loudly() {
        use std::io::ErrorKind;
        let mut buf = Vec::new();
        write_frame(&mut buf, &7u64).unwrap();
        // Truncated mid-payload.
        let mut r = &buf[..buf.len() - 1];
        assert_eq!(read_frame::<u64>(&mut r).unwrap_err().kind(), ErrorKind::UnexpectedEof);
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        let mut r = &bad[..];
        assert_eq!(read_frame::<u64>(&mut r).unwrap_err().kind(), ErrorKind::InvalidData);
        // Oversized length prefix fails before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(FRAME_MAGIC);
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &huge[..];
        assert_eq!(read_frame::<u64>(&mut r).unwrap_err().kind(), ErrorKind::InvalidData);
        // An oversized payload is refused before anything hits the
        // stream (an error, not a panic: runner-provided payloads reach
        // this path in mg-serve).
        let mut out = Vec::new();
        let oversized = vec![0u8; MAX_FRAME_LEN as usize + 1];
        assert_eq!(
            write_frame(&mut out, &oversized).unwrap_err().kind(),
            ErrorKind::InvalidData
        );
        assert!(out.is_empty(), "nothing written for a refused frame");
        // A payload with trailing bytes is not a valid frame of u8.
        let mut trailing = Vec::new();
        write_frame(&mut trailing, &vec![0u8; 4]).unwrap();
        let mut r = &trailing[..];
        assert_eq!(read_frame::<u8>(&mut r).unwrap_err().kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn word_hash_catches_every_single_bit_flip() {
        // Lengths 0..80 cover every lane position, whole-word remainder
        // and sub-word tail length of the block layout.
        for len in 0..80usize {
            let buf: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37) ^ 0x5a).collect();
            let h = fnv1a_words(&buf);
            for pos in 0..len {
                for bit in 0..8 {
                    let mut b = buf.clone();
                    b[pos] ^= 1 << bit;
                    assert_ne!(fnv1a_words(&b), h, "len {len}: flip of bit {bit} at {pos}");
                }
            }
            let mut longer = buf.clone();
            longer.push(0);
            assert_ne!(fnv1a_words(&longer), h, "len {len}: appended zero byte");
        }
    }

    #[test]
    fn fingerprints_are_stable_within_a_build() {
        assert_eq!(opcode_fingerprint(), opcode_fingerprint());
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
