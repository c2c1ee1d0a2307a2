//! Sparse paged byte-addressable memory.
//!
//! Memory is a map from 4 KiB page numbers to boxed pages. Functional
//! execution (`exec`) touches it on every load and store, so the access
//! paths are shaped for that loop:
//!
//! * a word access (`read/write_u16/u32/u64`) that stays inside one page
//!   costs one page lookup and one slice copy; only a page-straddling
//!   access takes the chunked byte path ([`Memory::read_bytes`] /
//!   [`Memory::write_bytes`], which walk one page at a time);
//! * the page table hashes page numbers with a fixed multiplicative
//!   hasher instead of SipHash — the keys are program addresses, not
//!   attacker-chosen input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

type Page = Box<[u8; PAGE_SIZE]>;

/// A fixed multiplicative (Fibonacci) hasher for page numbers.
///
/// The page table is keyed by `u64` page numbers only, so the hasher sees
/// exactly one `write_u64` per lookup. Multiplying by an odd constant is a
/// bijection whose low bits (the bucket index) differ for consecutive
/// pages and whose high bits (the table's tag byte) mix every input bit.
#[derive(Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
}

/// A sparse, little-endian, byte-addressable memory.
///
/// Pages are allocated on first touch; reads of untouched memory return
/// zero. Accesses may straddle page boundaries, and addresses wrap at
/// `u64::MAX`.
///
/// ```
/// use mg_isa::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0xffe, 0x1122_3344_5566_7788); // crosses a page boundary
/// assert_eq!(m.read_u64(0xffe), 0x1122_3344_5566_7788);
/// assert_eq!(m.read_u8(0x1000), 0x66);
/// assert_eq!(m.read_u32(0x5000), 0, "untouched memory reads zero");
/// ```
#[derive(Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Page, BuildHasherDefault<PageHasher>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads an `N`-byte little-endian word: one page lookup when the
    /// word lies inside a page, the chunked byte path when it straddles.
    #[inline]
    fn read_word<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut b = [0u8; N];
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                b.copy_from_slice(&p[off..off + N]);
            }
        } else {
            self.read_bytes(addr, &mut b);
        }
        b
    }

    /// Writes an `N`-byte word; the mirror of [`Memory::read_word`].
    #[inline]
    fn write_word<const N: usize>(&mut self, addr: u64, b: [u8; N]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            self.page_mut(addr)[off..off + N].copy_from_slice(&b);
        } else {
            self.write_bytes(addr, &b);
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads `buf.len()` bytes starting at `addr`, one page chunk at a
    /// time (untouched pages read as zero; addresses wrap at `u64::MAX`).
    pub fn read_bytes(&self, mut addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let off = (addr & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let chunk = &mut buf[done..done + n];
            match self.page(addr) {
                Some(p) => chunk.copy_from_slice(&p[off..off + n]),
                None => chunk.fill(0),
            }
            done += n;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Writes `buf` starting at `addr`, one page chunk at a time.
    pub fn write_bytes(&mut self, mut addr: u64, buf: &[u8]) {
        let mut done = 0;
        while done < buf.len() {
            let off = (addr & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            self.page_mut(addr)[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_word(addr))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_word(addr))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_word(addr))
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, addr: u64, val: u16) {
        self.write_word(addr, val.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_word(addr, val.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_word(addr, val.to_le_bytes());
    }

    /// A deterministic hash of the memory *contents*: resident pages in
    /// ascending address order, all-zero pages skipped (so a
    /// touched-but-zero page hashes identically to an untouched one),
    /// each page number and page folded a word at a time
    /// ([`fnv1a_words_extend`](crate::wire::fnv1a_words_extend)).
    /// The artifact cache folds this into a workload's fingerprint to
    /// invalidate cached selections/traces when only the initial data
    /// image changes.
    pub fn content_hash(&self) -> u64 {
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        indices.sort_unstable();
        let mut h = crate::wire::FNV_OFFSET_BASIS;
        for idx in indices {
            let page = &self.pages[&idx];
            if page.chunks_exact(8).all(|w| w == [0u8; 8]) {
                continue;
            }
            h = crate::wire::fnv1a_words_extend(h, &idx.to_le_bytes());
            h = crate::wire::fnv1a_words_extend(h, &page[..]);
        }
        h
    }

    /// Reads `width` bytes (1, 2, 4, or 8) zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4, or 8.
    #[inline]
    pub fn read_uint(&self, addr: u64, width: u8) -> u64 {
        match width {
            1 => self.read_u8(addr) as u64,
            2 => self.read_u16(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Writes the low `width` bytes (1, 2, 4, or 8) of `val`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4, or 8.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, width: u8, val: u64) {
        match width {
            1 => self.write_u8(addr, val as u8),
            2 => self.write_u16(addr, val as u16),
            4 => self.write_u32(addr, val as u32),
            8 => self.write_u64(addr, val),
            _ => panic!("unsupported access width {width}"),
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory").field("resident_pages", &self.pages.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_tracks_data_not_residency() {
        let empty = Memory::new();
        let mut zeroed = Memory::new();
        zeroed.write_u64(0x1000, 0); // touched but still all-zero
        assert_eq!(empty.content_hash(), zeroed.content_hash());

        let mut a = Memory::new();
        a.write_u64(0x2000, 7);
        let mut b = Memory::new();
        b.write_u64(0x2000, 8);
        assert_ne!(a.content_hash(), b.content_hash(), "data keys the hash");
        assert_ne!(a.content_hash(), empty.content_hash());
        let mut moved = Memory::new();
        moved.write_u64(0x3000, 7); // same value, different page
        assert_ne!(a.content_hash(), moved.content_hash(), "address keys the hash");
        assert_eq!(a.content_hash(), a.clone().content_hash(), "deterministic");
    }

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 3;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn generic_width_accessors() {
        let mut m = Memory::new();
        m.write_uint(0, 2, 0xffff_abcd);
        assert_eq!(m.read_uint(0, 2), 0xabcd);
        assert_eq!(m.read_uint(0, 4), 0xabcd);
        m.write_uint(8, 8, u64::MAX);
        assert_eq!(m.read_uint(8, 1), 0xff);
    }
}
